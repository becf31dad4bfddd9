package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/storage"
	"avdb/internal/synth"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return &b
}

// TestBenchmarkJSON holds BENCHMARK.json and the program's own tables to
// each other: the same workloads in the same order, and the same eleven
// end-to-end metrics with the same unit, direction and bound.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		sp, ok := specFor(w.Name, false)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
			continue
		}
		if w.Why != sp.why {
			t.Errorf("workload %q: BENCHMARK.json says why=%q, workloads.go says %q", w.Name, w.Why, sp.why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program's %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, def := range endToEndDefs {
		got := b.EndToEnd[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better || got.Bound != def.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs every workload in its smoke size, untraced and traced:
// all output checks pass, and the metrics printed are exactly the ones
// BENCHMARK.json names, with its units.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	wantE2E := make(map[string]string)
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for trace, want := range []map[string]string{wantE2E, wantLayer} {
			name, trace, want := name, trace, want
			t.Run(name+"/trace"+string(rune('0'+trace)), func(t *testing.T) {
				start := time.Now()
				res, info, err := run(options{workload: name, seed: 7, smoke: true, trace: trace, outDir: t.TempDir()}, hostClock{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("output checks failed: %d failed, errors %v", res.Failed, info.Errors)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				for _, k := range sortedKeys(res.Metrics) {
					if !metricName.MatchString(k) {
						t.Errorf("metric name %q does not match %v", k, metricName)
					}
					unit, ok := want[k]
					if !ok {
						t.Errorf("metric %q is not in BENCHMARK.json", k)
					} else if unit != res.Metrics[k].Unit {
						t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", k, res.Metrics[k].Unit, unit)
					}
				}
				for k := range want {
					if _, ok := res.Metrics[k]; !ok {
						t.Errorf("metric %q of BENCHMARK.json was not reported", k)
					}
				}
				// About half a second here; the limit leaves room for the
				// race detector and a busy host, and still catches a smoke
				// size that has grown towards the full one.
				if took := time.Since(start); took > 10*time.Second {
					t.Errorf("smoke run took %v, want a second or two", took)
				}
			})
		}
	}
}

// TestOverloadRampIsOffItsCeilings checks the property overload_ramp was
// built for, in smoke size: some clients are refused, some frames late.
func TestOverloadRampIsOffItsCeilings(t *testing.T) {
	res, _, err := run(options{workload: "overload_ramp", seed: 3, smoke: true, outDir: t.TempDir()}, hostClock{})
	if err != nil {
		t.Fatal(err)
	}
	served := res.Metrics["served_pct"].Value
	if served <= 20 || served >= 95 {
		t.Errorf("served_pct = %v, want strictly inside (20, 95)", served)
	}
	if v := res.Metrics["on_time_pct"].Value; v >= 100 {
		t.Errorf("on_time_pct = %v, want below 100", v)
	}
	if p50, p99 := res.Metrics["late_ms_p50"].Value, res.Metrics["late_ms_p99"].Value; p99 <= p50 {
		t.Errorf("late_ms_p99 = %v, want above late_ms_p50 = %v", p99, p50)
	}
}

// virtualMetrics picks the exact, virtual-time end-to-end metrics out of
// a result.
func virtualMetrics(res *result) map[string]float64 {
	out := make(map[string]float64)
	for _, def := range endToEndDefs {
		if def.virtual {
			out[def.name] = res.Metrics[def.name].Value
		}
	}
	return out
}

// TestSeedDiscipline: the seed decides the inputs and nothing else does.
// Two seeds give different fingerprints and different Zipf shuffles; one
// seed gives the same fingerprints and the same virtual-time metrics at
// GOMAXPROCS 1 and 2.
func TestSeedDiscipline(t *testing.T) {
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			runOne := func(seed int64, procs int) (*result, *runInfo) {
				res, info, err := run(options{workload: name, seed: seed, smoke: true, procs: procs, outDir: t.TempDir()}, hostClock{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("seed %d procs %d: output checks failed: %v", seed, procs, info.Errors)
				}
				return res, info
			}
			a1, ia1 := runOne(11, 1)
			a2, ia2 := runOne(11, 2)
			_, ib := runOne(12, 2)
			if !reflect.DeepEqual(ia1.Fingerprints, ia2.Fingerprints) {
				t.Errorf("seed 11: fingerprints %v at GOMAXPROCS 1, %v at 2", ia1.Fingerprints, ia2.Fingerprints)
			}
			if v1, v2 := virtualMetrics(a1), virtualMetrics(a2); !reflect.DeepEqual(v1, v2) {
				t.Errorf("seed 11: virtual metrics %v at GOMAXPROCS 1, %v at 2", v1, v2)
			}
			if reflect.DeepEqual(ia1.Fingerprints, ib.Fingerprints) {
				t.Errorf("seeds 11 and 12 gave the same fingerprints %v", ib.Fingerprints)
			}
		})
	}
	sp, _ := specFor("vod_zipf", true)
	v := &vod{sp}
	order := func(seed int64) []int {
		var clips []int
		for _, pl := range v.plan(&env{seed: seed}, nil, 0) {
			clips = append(clips, pl.clip)
		}
		return clips
	}
	if reflect.DeepEqual(order(11), order(12)) {
		t.Error("seeds 11 and 12 gave the same Zipf shuffle")
	}
	if !reflect.DeepEqual(order(11), order(11)) {
		t.Error("seed 11 gave two different Zipf shuffles")
	}
}

// playGraph runs reader → window over clip under a bare Graph.Run and
// returns what the window saw, as the wave fingerprint would record it.
func playGraph(t *testing.T, k kit, clip *media.VideoValue) (fp uint64, events int, reader activity.Activity) {
	t.Helper()
	src, concrete, _, err := k.videoReader("reader", activity.AtDatabase, media.TypeRawVideo30, nil)
	if err != nil {
		t.Fatal(err)
	}
	concrete.SetLatency(sched.NewLatency(3*avtime.Millisecond, 2*avtime.Millisecond, 5))
	if err := concrete.Catch(activity.EventEachFrame, func(activity.EventInfo) { events++ }); err != nil {
		t.Fatal(err)
	}
	sink, win, _ := k.videoWindow("window", activity.AtApplication, media.VideoQuality{}, 50*avtime.Millisecond, nil)
	g := activity.NewGraph("g")
	for _, a := range []activity.Activity{src, sink} {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect(src, "out", sink, "in"); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(activity.RunConfig{Clock: sched.NewVirtualClock(0), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := newFingerprinter()
	arr := win.Arrivals()
	f.session(0, stats.BytesMoved, stats.Ticks, win.Monitor().Misses(), arr[0], arr[len(arr)-1])
	f.note("%d;", win.FramesShown())
	return f.sum(), events, src
}

// TestDecoratorIsTransparent: a decorated activity still is what core
// and the activity package type-assert it to be — a stream attacher, a
// latency sampler, an event emitter — and a decorated graph produces the
// very fingerprint of the bare one, while the decorators count its ticks.
func TestDecoratorIsTransparent(t *testing.T) {
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 16, 12, 8, 30, 1)
	bareFP, bareEvents, _ := playGraph(t, kit{}, clip)

	clock := &fakeClock{Step: time.Microsecond}
	book := newTickBook(newStopwatch(clock))
	fp, events, reader := playGraph(t, kit{book: book}, clip)
	if fp != bareFP {
		t.Errorf("decorated graph fingerprint %016x, bare %016x", fp, bareFP)
	}
	if events != bareEvents || events != 30 {
		t.Errorf("EACH_FRAME handler ran %d times decorated, %d bare, want 30", events, bareEvents)
	}
	if _, ok := reader.(interface{ AttachStream(*storage.Stream) }); !ok {
		t.Error("a decorated VideoReader no longer has AttachStream")
	}
	if _, ok := reader.(interface{ SampleLatency() avtime.WorldTime }); !ok {
		t.Error("a decorated VideoReader no longer has SampleLatency")
	}
	if _, ok := reader.(interface{ Emit(activity.EventInfo) }); !ok {
		t.Error("a decorated VideoReader no longer has Emit")
	}
	rs := book.byClass["VideoReader"]
	if rs == nil || rs.ticks < 30 {
		t.Fatalf("the reader's decorator counted %+v ticks, want at least 30", rs)
	}
	// Every Tick makes two clock readings, one Step apart.
	if rs.ns != rs.ticks*int64(time.Microsecond) {
		t.Errorf("reader tick time %d ns over %d ticks on a 1µs-per-reading clock", rs.ns, rs.ticks)
	}

	// A decorated composite: children charge their time to it as child
	// time, so its self time is span minus children.
	book = newTickBook(newStopwatch(&fakeClock{Step: time.Microsecond}))
	k := kit{book: book}
	comp := activities.NewMultiSource("dbSource", activity.AtDatabase)
	compAct, compT := k.composite(comp, nil)
	child, _, _, err := k.videoReader("videoTrack", activity.AtDatabase, media.TypeRawVideo30, compT)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Install(child); err != nil {
		t.Fatal(err)
	}
	if err := activities.SealMultiSource(comp); err != nil {
		t.Fatal(err)
	}
	if err := child.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	if _, ok := compAct.(interface{ SampleLatency() avtime.WorldTime }); !ok {
		t.Error("a decorated composite no longer has SampleLatency")
	}
	if err := compAct.Start(); err != nil {
		t.Fatal(err)
	}
	tc := activity.NewTickContext(0, 0, avtime.Interval{Dur: avtime.RateVideo30.UnitDuration()})
	if err := compAct.Tick(tc); err != nil {
		t.Fatal(err)
	}
	if tc.Out("out") == nil {
		t.Error("the decorated composite emitted nothing on its mux port")
	}
	cs, rs := book.byClass["MultiSource"], book.byClass["VideoReader"]
	// Readings: composite start, child start, child stop, composite stop.
	if cs.ns != 3000 || rs.ns != 1000 || cs.childNS != 1000 || cs.selfNS() != 2000 {
		t.Errorf("composite span %d ns, child %d ns, child time %d ns, self %d ns; want 3000, 1000, 1000, 2000",
			cs.ns, rs.ns, cs.childNS, cs.selfNS())
	}
	if book.topLevelNS != 3000 {
		t.Errorf("graph-level tick time %d ns, want the composite's 3000", book.topLevelNS)
	}
}
