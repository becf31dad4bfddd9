// Command avbench regenerates every table and figure of "Audio/Video
// Databases: An Object-Oriented Approach" (ICDE 1993) and runs the
// benchmarks for the five design characteristics of §3.3.
//
// Usage:
//
//	avbench                  # run everything
//	avbench -exp fig3        # one experiment: rates, table1, fig1..fig4, c1..c5
//	avbench -frames 300      # longer streams
//	avbench -list            # list experiment names
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

var runners = []runner{
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
		sweep, err := experiment.Fig4Sweep(max(frames/3, 1), 320, 240, []media.DataRate{
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
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns 0 on success, 1 when an
// experiment fails and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (or 'all')")
	frames := fs.Int("frames", 120, "stream length in frames (at least 1)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *frames < 1 {
		fmt.Fprintf(stderr, "avbench: -frames must be at least 1, got %d\n", *frames)
		return 2
	}
	if *list {
		for _, r := range runners {
			fmt.Fprintf(stdout, "%-8s %s\n", r.name, r.desc)
		}
		return 0
	}
	known := *exp == "all"
	for _, r := range runners {
		known = known || strings.EqualFold(*exp, r.name)
	}
	if !known {
		fmt.Fprintf(stderr, "avbench: unknown experiment %q (use -list)\n", *exp)
		return 2
	}
	status := 0
	for _, r := range runners {
		if *exp != "all" && !strings.EqualFold(*exp, r.name) {
			continue
		}
		res, err := r.run(*frames)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", r.name, err)
			status = 1
			continue
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 72))
		fmt.Fprintln(stdout, res.String())
	}
	return status
}
