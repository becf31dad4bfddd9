// Command avbench regenerates every table and figure of "Audio/Video
// Databases: An Object-Oriented Approach" (ICDE 1993) and runs the
// benchmarks for the five design characteristics of §3.3.
//
// Usage:
//
//	avbench                  # run everything
//	avbench -exp fig3        # one experiment: table1, fig1..fig4, c1..c5
//	avbench -frames 300      # longer streams
//	avbench -list            # list experiment names
//	avbench -exp obs -metrics -trace
//	                         # instrumented playback with the full
//	                         # metric and span-tree rendition
//	avbench -exp stripe -width 4
//	                         # striped placement + SCAN-EDF rounds vs
//	                         # single-disk multi-stream reads
//	avbench -exp tenancy -sessions 4
//	                         # multi-session engine: N sessions sharing
//	                         # one clip and one clock vs back-to-back
//	avbench -exp overload -sessions 4
//	                         # engine overload control: priority-ordered
//	                         # degrade sweeps and load shedding vs thrash
//	avbench -exp zipf -sessions 1000
//	                         # sharded engine: Zipf hot-clip/cold-tail
//	                         # tenancy rerun with EngineWorkers 1/2/4,
//	                         # checked byte-identical to serial
//	avbench -exp jukebox     # storage hierarchy: cold platter swaps,
//	                         # popularity promotion, hot replication,
//	                         # idle demotion sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"avdb/internal/avtime"
	"avdb/internal/experiment"
	"avdb/internal/media"
)

type runner struct {
	name string
	desc string
	run  func(frames int) (fmt.Stringer, error)
}

// stringers concatenates several renditions under one experiment.
type stringers []fmt.Stringer

func (s stringers) String() string {
	var out string
	for i, x := range s {
		if i > 0 {
			out += "\n"
		}
		out += x.String()
	}
	return out
}

// sweepStringer adapts a Fig. 4 sweep to fmt.Stringer.
type sweepStringer []experiment.Fig4SweepRow

func (s sweepStringer) String() string { return experiment.SweepString(s) }

// obsStringer renders an Observe result with optional full metric and
// trace sections.
type obsStringer struct {
	res     *experiment.ObserveResult
	metrics bool
	trace   bool
}

func (o obsStringer) String() string {
	s := o.res.String()
	if o.metrics {
		s += "\n" + o.res.Snap.MetricsText()
	}
	if o.trace {
		s += "\n" + o.res.Snap.TraceText()
	}
	return s
}

func runners(metrics, trace bool, width, sessions int) []runner {
	return []runner{
		{"rates", "media data rates and measured compression", func(int) (fmt.Stringer, error) {
			return experiment.Rates()
		}},
		{"table1", "Table 1: the video activity classes", func(int) (fmt.Stringer, error) {
			return experiment.Table1()
		}},
		{"fig1", "Fig. 1: Newscast.clip timeline diagram", func(int) (fmt.Stringer, error) {
			return experiment.Fig1()
		}},
		{"fig2", "Fig. 2: flow composition, flat chain vs composite", func(frames int) (fmt.Stringer, error) {
			return experiment.Fig2(frames)
		}},
		{"fig3", "Fig. 3: synchronized composite playback over a session", func(frames int) (fmt.Stringer, error) {
			return experiment.Fig3(frames)
		}},
		{"fig4", "Fig. 4: virtual world, render at database vs client", func(frames int) (fmt.Stringer, error) {
			res, err := experiment.Fig4(frames, 320, 240, 10*media.MBPerSecond)
			if err != nil {
				return nil, err
			}
			sweep, err := experiment.Fig4Sweep(frames/3, 320, 240, []media.DataRate{
				500 * media.KBPerSecond, 2 * media.MBPerSecond,
				5 * media.MBPerSecond, 40 * media.MBPerSecond,
			})
			if err != nil {
				return nil, err
			}
			return stringers{res, sweepStringer(sweep)}, nil
		}},
		{"c1", "C1 database platform: processing placed with the data", func(frames int) (fmt.Stringer, error) {
			return experiment.C1DevicePlacement(frames)
		}},
		{"c2", "C2 scheduling: admission control vs best effort", func(frames int) (fmt.Stringer, error) {
			return experiment.C2AdmissionControl(120, frames)
		}},
		{"c3", "C3 client interface: asynchronous vs blocking", func(frames int) (fmt.Stringer, error) {
			return experiment.C3AsyncVsBlocking(frames, 5*avtime.Millisecond)
		}},
		{"c4", "C4 data placement: same-device copy vs dual-device mix", func(frames int) (fmt.Stringer, error) {
			return experiment.C4DataPlacement(frames)
		}},
		{"c5", "C5 data representation: quality factors over scalable video", func(frames int) (fmt.Stringer, error) {
			return experiment.C5QualityFactors(frames / 4)
		}},
		{"chaos", "fault injection: stream survival with recovery on vs off", func(frames int) (fmt.Stringer, error) {
			return experiment.Chaos(frames, 7)
		}},
		{"obs", "observability: instrumented playback, spans and QoS metrics", func(frames int) (fmt.Stringer, error) {
			res, err := experiment.Observe(frames, 42)
			if err != nil {
				return nil, err
			}
			return obsStringer{res: res, metrics: metrics, trace: trace}, nil
		}},
		{"stripe", "striped placement + SCAN-EDF rounds vs single-disk reads", func(frames int) (fmt.Stringer, error) {
			return experiment.Stripe(frames, width)
		}},
		{"tenancy", "multi-session engine: shared clock + merged rounds vs back-to-back", func(frames int) (fmt.Stringer, error) {
			return experiment.Tenancy(frames, sessions)
		}},
		{"overload", "engine overload control: degrade sweeps + load shedding vs thrash", func(frames int) (fmt.Stringer, error) {
			return experiment.Overload(frames, sessions)
		}},
		{"jukebox", "storage hierarchy: promote, replicate and demote over the videodisc tier", func(frames int) (fmt.Stringer, error) {
			return experiment.Jukebox(frames)
		}},
		{"zipf", "sharded engine: Zipf tenancy swept over EngineWorkers 1/2/4", func(frames int) (fmt.Stringer, error) {
			n := sessions
			if n < 12 { // the experiment needs at least one session per clip
				n = 96
			}
			return experiment.ZipfTenancy(frames, n)
		}},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	frames := flag.Int("frames", 120, "stream length in frames")
	list := flag.Bool("list", false, "list experiments and exit")
	metrics := flag.Bool("metrics", false, "print the full metric registry after the obs experiment")
	trace := flag.Bool("trace", false, "print the span tree after the obs experiment")
	width := flag.Int("width", 4, "stripe width for the stripe experiment")
	sessions := flag.Int("sessions", 4, "session count for the tenancy and overload experiments")
	flag.Parse()

	rs := runners(*metrics, *trace, *width, *sessions)
	if *list {
		for _, r := range rs {
			fmt.Printf("%-8s %s\n", r.name, r.desc)
		}
		return
	}
	var failed bool
	for _, r := range rs {
		if *exp != "all" && !strings.EqualFold(*exp, r.name) {
			continue
		}
		res, err := r.run(*frames)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		fmt.Println(strings.Repeat("=", 72))
		fmt.Println(res.String())
	}
	if failed {
		os.Exit(1)
	}
	if *exp != "all" {
		for _, r := range rs {
			if strings.EqualFold(*exp, r.name) {
				return
			}
		}
		fmt.Fprintf(os.Stderr, "avbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}
