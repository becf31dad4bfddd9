package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// span is one traced interval: a call the driver made into a layer, a
// phase, a wave, or (for the sampled session) one activity tick.  Times
// are nanoseconds on the run's stopwatch.  Parent is the span that
// caused it; -1 marks the root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // work items the span covers, when it aggregates
}

// noSpan is the parent of root spans and the id every recorder call
// returns while tracing is off.
const noSpan int32 = -1

// recorder keeps spans in one preallocated slice and writes them out
// when the run ends.  A nil recorder is the untraced mode: every method
// is a no-op that reads no clock, so the measured region pays nothing
// for the trace pass existing.
type recorder struct {
	sw *stopwatch

	mu    sync.Mutex // the driver and (on overload_ramp) the pacer handler both record
	spans []span
}

func newRecorder(sw *stopwatch, capacity int) *recorder {
	return &recorder{sw: sw, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(parent int32, layer, name string) int32 {
	if r == nil {
		return noSpan
	}
	start := r.sw.now()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: start})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id == noSpan {
		return
	}
	end := r.sw.now()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// add records a finished span (activity ticks are timed by their
// decorator and handed over whole).
func (r *recorder) add(parent int32, layer, name string, start, end, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int32(len(r.spans)), Parent: parent, Layer: layer, Name: name, Start: start, End: end, N: n})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its direct children cover.  Children of one parent are
// sequential in this harness (one driver goroutine), so the covered part
// is the sum of their durations clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 || int(s.Parent) >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		start, end := s.Start, s.End
		if start < p.Start {
			start = p.Start
		}
		if end > p.End {
			end = p.End
		}
		if end > start {
			self[s.Parent] -= end - start
		}
	}
	return self
}

// coveredNS64 is the length of the union of every span that is a call
// into a layer (any span not recorded by layer "bench"), clipped to the
// stream phases — how much of the stream-phase time the trace explains
// before any probe attribution.
func coveredNS64(spans []span) int64 {
	type iv struct{ lo, hi int64 }
	var phases, calls []iv
	for _, s := range spans {
		switch {
		case s.Layer == "bench" && (s.Name == "open" || s.Name == "run" || s.Name == "close"):
			phases = append(phases, iv{s.Start, s.End})
		case s.Layer != "bench" && !strings.HasSuffix(s.Name, ".Tick"):
			calls = append(calls, iv{s.Start, s.End})
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].lo < calls[j].lo })
	// Merge the calls into disjoint intervals.
	var merged []iv
	for _, c := range calls {
		if n := len(merged); n > 0 && c.lo <= merged[n-1].hi {
			if c.hi > merged[n-1].hi {
				merged[n-1].hi = c.hi
			}
			continue
		}
		merged = append(merged, c)
	}
	var total int64
	for _, ph := range phases {
		for _, c := range merged {
			lo, hi := c.lo, c.hi
			if lo < ph.lo {
				lo = ph.lo
			}
			if hi > ph.hi {
				hi = ph.hi
			}
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

// callStat is the aggregate of every span sharing one (layer, name).
type callStat struct {
	calls int64
	ns    int64 // total duration
	self  int64 // total self time
}

// inStreamPhases marks the spans that lie inside a wave's stream phases
// (open, run, close), the phases themselves included.  Set-up inserts,
// browse bursts, platform rebuilds and recovery lie outside: they are
// real calls with real costs, but no part of stream-phase time.
func inStreamPhases(spans []span) []bool {
	type iv struct{ lo, hi int64 }
	var phases []iv
	for _, s := range spans {
		if s.Layer == "bench" && (s.Name == "open" || s.Name == "run" || s.Name == "close") {
			phases = append(phases, iv{s.Start, s.End})
		}
	}
	in := make([]bool, len(spans))
	for i, s := range spans {
		for _, ph := range phases {
			if s.Start >= ph.lo && s.End <= ph.hi {
				in[i] = true
				break
			}
		}
	}
	return in
}

// aggregate folds spans by "layer.name"; a non-nil keep selects which
// spans count.
func aggregate(spans []span, keep []bool) map[string]*callStat {
	self := selfTimes(spans)
	out := make(map[string]*callStat)
	for i, s := range spans {
		if keep != nil && !keep[i] {
			continue
		}
		key := s.Layer + "." + s.Name
		st := out[key]
		if st == nil {
			st = &callStat{}
			out[key] = st
		}
		st.calls++
		st.ns += s.End - s.Start
		st.self += self[i]
	}
	return out
}

// meanNS is the mean duration of one call, 0 when none were made.
func (c *callStat) meanNS() float64 {
	if c == nil || c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Unit     string `json:"unit"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans to dir/<workload>.trace.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("bench: creating trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Unit: "ns", Spans: spans}); err != nil {
		f.Close()
		return "", fmt.Errorf("bench: encoding trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("bench: writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("bench: closing trace: %w", err)
	}
	return path, nil
}
