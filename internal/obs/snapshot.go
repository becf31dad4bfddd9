package obs

import (
	"encoding/json"
	"fmt"
	"strings"

	"avdb/internal/avtime"
)

// MetricValue is one named counter or gauge reading.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHistogram is one named histogram reading.
type NamedHistogram struct {
	Name string          `json:"name"`
	Hist *HistogramValue `json:"hist"`
}

// Snapshot is a deterministic capture of a Collector: metrics sorted by
// name, spans in ID order.  Render it with MetricsText, TraceText, Text
// or JSON; identical workloads yield identical bytes.
type Snapshot struct {
	Counters   []MetricValue    `json:"counters"`
	Gauges     []MetricValue    `json:"gauges"`
	Histograms []NamedHistogram `json:"histograms"`
	Spans      []Span           `json:"spans"`
}

// Counter reads a counter from the snapshot (zero when absent).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// MetricsText renders the metric section: one line per counter and
// gauge, a summary plus populated buckets per histogram.
func (s *Snapshot) MetricsText() string {
	var b strings.Builder
	b.WriteString("== metrics ==\n")
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %-32s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge   %-32s %d\n", g.Name, g.Value)
	}
	for _, nh := range s.Histograms {
		h := nh.Hist
		fmt.Fprintf(&b, "hist    %-32s n=%d sum=%v min=%v max=%v\n",
			nh.Name, h.N, avtime.WorldTime(h.Sum), avtime.WorldTime(h.Min), avtime.WorldTime(h.Max))
		for i, cnt := range h.Counts {
			if cnt == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, "        le %-12v %d\n", avtime.WorldTime(h.Bounds[i]), cnt)
			} else {
				fmt.Fprintf(&b, "        le +inf        %d\n", cnt)
			}
		}
	}
	return b.String()
}

// TraceText renders the span tree, indented by nesting depth, each line
// carrying the span's kind, name, interval and attributes.
func (s *Snapshot) TraceText() string {
	children := make(map[SpanID][]SpanID, len(s.Spans))
	byID := make(map[SpanID]Span, len(s.Spans))
	var roots []SpanID
	for _, sp := range s.Spans {
		byID[sp.ID] = sp
		if sp.Parent == NoSpan {
			roots = append(roots, sp.ID)
		} else if _, ok := byID[sp.Parent]; ok {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		} else {
			// Orphaned parents (ended before this snapshot's horizon)
			// surface the span as a root rather than dropping it.
			roots = append(roots, sp.ID)
		}
	}
	var b strings.Builder
	b.WriteString("== trace ==\n")
	var walk func(id SpanID, depth int)
	walk = func(id SpanID, depth int) {
		sp := byID[id]
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s %q [%v, %v)", sp.Kind, sp.Name, sp.Start, sp.End)
		if sp.Open {
			b.WriteString(" open")
		}
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, " %s=%d", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.  Field order is fixed by
// the struct definitions and slice order, so the output is byte-stable.
func (s *Snapshot) JSON() (string, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
