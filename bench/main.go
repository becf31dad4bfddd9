// Command bench is avdb's benchmark: four workloads, eleven end-to-end
// metrics measured untraced, and a traced serial pass that says which
// layer spent the time.  See README.md in this directory.
//
//	go run -C bench . -workload vod_zipf -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured region on the reference host")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced layer pass, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run the workload in its smoke size (one short wave)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload N times, one fresh process each, and report medians and spreads")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace and run-record files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if _, ok := specFor(o.workload, o.smoke); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; choose one of %v\n", o.workload, workloadNames)
		os.Exit(2)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, got %d\n", o.trace)
		os.Exit(2)
	}
	if o.repeat > 0 {
		os.Exit(repeatRuns(o))
	}
	out, info, err := run(o, hostClock{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := writeRunRecord(o, info, out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// options are the settings of one run.  procs has no flag: it is
// GOMAXPROCS and avdb's Workers/EngineWorkers for the parallel passes,
// min(CPUs, 4) when zero, and only the seed-discipline test sets it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	procs    int
	repeat   int
	outDir   string
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the run record written next to the trace: the conditions a
// number was measured under, so a short region or a 1-CPU host is
// visible to whoever reads the number later.
type runInfo struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      float64   `json:"seconds"`
	Trace        int       `json:"trace"`
	Smoke        bool      `json:"smoke"`
	CPUs         int       `json:"cpus"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	Go           string    `json:"go"`
	Waves        int       `json:"waves"`
	Sessions     int       `json:"sessions"`
	Frames       int64     `json:"frames"`
	SessionSteps int64     `json:"session_steps"`
	Browses      int       `json:"browse_actions"`
	RegionS      float64   `json:"measured_region_s"`
	StreamS      float64   `json:"stream_phase_s"`
	SetupS       []float64 `json:"setup_s_each"`
	WaveRates    []float64 `json:"wave_frames_per_s"`
	Fingerprints []string  `json:"wave_fingerprints"`
	Errors       []string  `json:"errors,omitempty"`
	TraceFile    string    `json:"trace_file,omitempty"`
}

func (ri *runInfo) fill(o options, ps *pass, setupS []float64) {
	t := ps.totals()
	ri.Workload, ri.Seed, ri.Seconds, ri.Trace, ri.Smoke = o.workload, o.seed, o.seconds, o.trace, o.smoke
	ri.CPUs, ri.GOMAXPROCS, ri.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	ri.Waves, ri.Sessions, ri.Frames, ri.SessionSteps = len(ps.waves), t.attempted, t.frames, t.steps
	for _, w := range ps.waves {
		ri.Browses += len(w.browses)
		ri.WaveRates = append(ri.WaveRates, math.Round(ratio(float64(w.frames), float64(w.streamNS())/1e9)))
	}
	ri.RegionS, ri.StreamS, ri.SetupS = float64(ps.regionNS)/1e9, float64(t.streamNS)/1e9, setupS
	for _, f := range ps.fingerprints() {
		ri.Fingerprints = append(ri.Fingerprints, fmt.Sprintf("%016x", f))
	}
}

func (ri *runInfo) note(errs ...error) {
	for _, err := range errs {
		if err != nil && len(ri.Errors) < 16 {
			ri.Errors = append(ri.Errors, err.Error())
		}
	}
}

// writeRunRecord writes <out>/<workload>.trace<N>.run.json and echoes the
// record, without the result, on stderr.
func writeRunRecord(o options, info *runInfo, out *result) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", o.outDir, err)
	}
	rec := struct {
		*runInfo
		Result *result `json:"result"`
	}{info, out}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.trace%d.run.json", o.workload, o.trace)
	if err := os.WriteFile(filepath.Join(o.outDir, name), data, 0o644); err != nil {
		return fmt.Errorf("writing run record: %w", err)
	}
	brief, _ := json.Marshal(info)
	fmt.Fprintln(os.Stderr, string(brief))
	return nil
}

func newWorkload(sp *spec) workload {
	switch sp.name {
	case "vod_zipf":
		return &vod{sp}
	case "newsroom_decode":
		return &newsroom{sp}
	case "record_and_catalog":
		return &record{sp}
	case "overload_ramp":
		return &overload{sp}
	}
	panic("bench: no implementation for workload " + sp.name)
}

// run executes one workload once and returns what to print.
func run(o options, clock TimeProvider) (*result, *runInfo, error) {
	sp, _ := specFor(o.workload, o.smoke)
	wl := newWorkload(sp)
	procs := o.procs
	if procs <= 0 {
		procs = maxProcs()
	}
	runtime.GOMAXPROCS(procs)
	sw := newStopwatch(clock)
	if o.trace == 1 {
		return runTraced(o, wl, sw, procs)
	}
	return runEndToEnd(o, wl, sw, procs)
}

// runEndToEnd is the untraced run: set up (several times, timed), the
// measured region at full parallelism, recovery, output checks.
func runEndToEnd(o options, wl workload, sw *stopwatch, procs int) (*result, *runInfo, error) {
	sp := wl.spec()
	e := &env{sw: sw, seed: o.seed, workers: procs, smoke: o.smoke}
	var p *platform
	var setupS []float64
	var spent float64
	for i := 0; i < setupMaxReps && (i < setupMinReps || spent*1e9 < setupMinNS); i++ {
		var s float64
		var err error
		p, s, err = buildTimed(e, wl)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", sp.name, err)
		}
		setupS = append(setupS, s)
		spent += s
	}
	runtime.GC() // drop the discarded set-ups before the region starts

	// Fixed work, sized for --seconds on the reference host; twice that
	// is the point at which a slow host stops early.
	ps, p := runPass(e, wl, p, sp.waves(o.seconds), int64(2*o.seconds*1e9))
	rcv := measureRecovery(e, p, noSpan)

	t := ps.totals()
	info := &runInfo{}
	info.fill(o, ps, setupS)
	info.note(t.errs...)
	info.note(rcv.err)
	out := &result{
		Correct:   t.failed == 0 && rcv.ok,
		Attempted: t.attempted + info.Browses + rcv.browses,
		Failed:    t.failed,
		Metrics:   endToEnd(sp, setupS, ps, rcv),
	}
	if !rcv.ok {
		out.Failed++
	}
	return out, info, nil
}

// runTraced is the layer pass.  The same first waves run three times on
// three identically seeded platforms — parallel untraced, serial
// untraced, serial traced — so the trace's own overhead and the engine's
// parallel ratio fall out of the comparison, and the per-wave
// fingerprints of all three must agree.  Probes then price the layers
// the decorators cannot see into.
func runTraced(o options, wl workload, sw *stopwatch, procs int) (*result, *runInfo, error) {
	sp := wl.spec()
	n := sp.tracedWaves
	book := newTickBook(sw)
	envs := [3]*env{
		{sw: sw, seed: o.seed, workers: procs, smoke: o.smoke},
		{sw: sw, seed: o.seed, workers: 1, smoke: o.smoke},
		{sw: sw, seed: o.seed, workers: 1, smoke: o.smoke,
			rec: newRecorder(sw, 1<<16), kit: kit{book: book}},
	}
	var passes [3]*pass
	var last *platform
	var setupS []float64
	var gc0, gc1 gcSample
	for i, e := range envs {
		p, s, err := buildTimed(e, wl)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", sp.name, err)
		}
		setupS = append(setupS, s)
		runtime.GC()
		if i == 0 {
			gc0 = readGC()
		}
		passes[i], last = runPass(e, wl, p, n, 0)
		if i == 0 {
			gc1 = readGC()
		}
	}
	te := envs[2]
	// Probes first: recovery does not rebuild tcomp attributes, which the
	// executor probe's wiring reads.
	probes, err := runProbes(te, wl, last)
	if err != nil {
		return nil, nil, err
	}
	rcv := measureRecovery(te, last, noSpan)
	spans := te.rec.snapshot()

	info := &runInfo{}
	info.fill(o, passes[0], setupS)
	correct := rcv.ok
	info.note(rcv.err)
	failed := 0
	for i, ps := range passes {
		t := ps.totals()
		failed += t.failed
		info.note(t.errs...)
		if i > 0 && !sameFingerprints(passes[0].fingerprints(), ps.fingerprints()) {
			correct = false
			failed++
			info.note(fmt.Errorf("bench: pass %d fingerprints %x differ from the parallel pass's %x — the run is not deterministic across Workers/EngineWorkers",
				i, ps.fingerprints(), passes[0].fingerprints()))
		}
	}
	if failed > 0 {
		correct = false
	}
	path, err := writeTrace(o.outDir, sp.name, o.seed, spans)
	if err != nil {
		return nil, nil, err
	}
	info.TraceFile = path
	t0 := passes[0].totals()
	out := &result{
		Correct:   correct,
		Attempted: t0.attempted + info.Browses + rcv.browses,
		Failed:    failed,
		Metrics: perLayer(&layerInputs{
			sp: sp, par: passes[0], serial: passes[1], traced: passes[2],
			book: book, spans: spans, counts: passes[2].counts,
			setup: last, setupS: median(setupS), gc0: gc0, gc1: gc1, probes: probes,
		}),
	}
	return out, info, nil
}

func sameFingerprints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
