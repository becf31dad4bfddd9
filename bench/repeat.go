package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// metricDef is one end-to-end metric as BENCHMARK.json declares it.
// Virtual metrics are exact counts made by the program in virtual time:
// for a given seed and --seconds they must repeat bit for bit, so -repeat
// holds them to equality and not to their bound (the bound is what a
// later change may move the median by, across seeds).
type metricDef struct {
	name    string
	unit    string
	better  string
	bound   float64
	virtual bool
}

// endToEndDefs lists the eleven end-to-end metrics in BENCHMARK.json
// order; TestBenchmarkJSON holds the two to each other.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"frames_per_s", "1/s", "higher", 0.25, false},
	{"open_us_p50", "us", "lower", 0.25, false},
	{"browse_us_p50", "us", "lower", 0.25, false},
	{"recover_ms", "ms", "lower", 0.25, false},
	{"late_ms_p50", "ms_virtual", "lower", 0.02, true},
	{"late_ms_p99", "ms_virtual", "lower", 0.05, true},
	{"on_time_pct", "%", "higher", 0.03, true},
	{"served_pct", "%", "higher", 0.03, true},
	{"allocs_per_frame", "allocs/frame", "lower", 0.04, false},
	{"peak_heap_mb", "MB", "lower", 0.25, false},
}

// repeatSummary is what -repeat prints: per metric the median, the
// quartiles and the spread of N fresh-process runs of one workload.
type repeatSummary struct {
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Runs     int                     `json:"runs"`
	Stable   bool                    `json:"stable"`
	Metrics  map[string]repeatMetric `json:"metrics"`
}

type repeatMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Max    float64   `json:"max_rel_dev"`
	Bound  float64   `json:"bound"`
	Stable bool      `json:"stable"`
	Values []float64 `json:"values"`
}

// repeatRuns runs the workload o.repeat times, each in a fresh process
// so no heap state carries over, and prints the summary.  It returns the
// process exit code: 0 only if every run was correct and every metric
// stable.
func repeatRuns(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	for i := 0; i < o.repeat; i++ {
		args := []string{
			"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-out", o.outDir,
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d of %d failed: %v\n", i+1, o.repeat, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: run %d of %d: %v\n", i+1, o.repeat, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: run %d of %d failed its output checks\n", i+1, o.repeat)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	sum := summarize(o, values)
	line, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Stable {
		return 1
	}
	return 0
}

// lastResult parses the result object a run prints as its last line.
func lastResult(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}

// summarize folds the runs' values into the -repeat summary.
func summarize(o options, values map[string][]float64) *repeatSummary {
	sum := &repeatSummary{Workload: o.workload, Seed: o.seed, Runs: o.repeat, Stable: true, Metrics: make(map[string]repeatMetric)}
	for _, def := range endToEndDefs {
		vs := values[def.name]
		q1, _, q3 := quartiles(vs)
		med := median(vs)
		m := repeatMetric{Unit: def.unit, Median: med, Q1: q1, Q3: q3, Spread: relSpread(vs), Bound: def.bound, Values: vs}
		identical := true
		for _, v := range vs {
			if v != vs[0] {
				identical = false
			}
			if med != 0 {
				if dev := abs(v-med) / abs(med); dev > m.Max {
					m.Max = dev
				}
			}
		}
		if def.virtual {
			m.Stable = identical
		} else {
			m.Stable = m.Spread <= def.bound
		}
		if !m.Stable {
			sum.Stable = false
		}
		sum.Metrics[def.name] = m
	}
	return sum
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
