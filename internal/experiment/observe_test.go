package experiment

import (
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/fault"
	"avdb/internal/obs"
)

// runObserved plays one stream with the observability layer on end to
// end, under a light seeded campaign that exercises the fault counters
// without killing the stream: transient reads on disk0 (p=0.10, retried)
// over the first quarter and chunk loss on lan0 (p=0.05, absorbed by a
// fail-soft connection) throughout.  It returns the snapshot taken after
// the session closed.
func runObserved(t *testing.T, frames int, seed int64) *obs.Snapshot {
	t.Helper()
	const tolerance = 100 * avtime.Millisecond
	c := newCampaignStream(t, frames, seed, true, tolerance, func(total avtime.WorldTime) []fault.Fault {
		return []fault.Fault{
			{Kind: fault.TransientRead, Target: "disk0", Start: 0, Dur: total / 4, Probability: 0.10},
			{Kind: fault.ChunkLoss, Target: "lan0", Start: 0, Dur: total, Probability: 0.05},
		}
	})
	c.src.SetRetry(fault.DefaultRetry)
	c.win.EnableStallDetection(tolerance, 3)
	c.conn.SetFailSoft(true)
	pb, err := c.sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.sess.Close(); err != nil {
		t.Fatal(err)
	}
	return c.col.Snapshot()
}

// TestObserveSnapshotDeterministic: the same seed renders a
// byte-identical snapshot — spans, counters, gauges and histograms — as
// text and as JSON.
func TestObserveSnapshotDeterministic(t *testing.T) {
	a, b := runObserved(t, 60, 7), runObserved(t, 60, 7)
	if at, bt := a.MetricsText()+a.TraceText(), b.MetricsText()+b.TraceText(); at != bt {
		t.Errorf("snapshot text differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", at, bt)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if aj != bj {
		t.Error("snapshot JSON differs between identical runs")
	}
}

// TestObserveCapturesAllSurfaces: one instrumented playback lands data
// in every metric family the layer advertises, records exactly one
// session span and one playback span, and leaves no span open.
func TestObserveCapturesAllSurfaces(t *testing.T) {
	snap := runObserved(t, 90, 42)
	var sessions, playbacks int
	for _, sp := range snap.Spans {
		switch sp.Kind {
		case "session":
			sessions++
		case "playback":
			playbacks++
		}
		if sp.Open {
			t.Errorf("span %d %q left open", sp.ID, sp.Name)
		}
	}
	if sessions != 1 || playbacks != 1 {
		t.Errorf("got %d session and %d playback spans, want 1 each", sessions, playbacks)
	}
	for _, counter := range []string{
		"session.opened", "session.closed",
		"stream.chunks", "stream.bytes",
		"storage.reads", "storage.read_bytes",
		"sched.ticks",
		"deadline.presented",
		"net.lan0.transfers",
	} {
		if snap.Counter(counter) == 0 {
			t.Errorf("counter %s never incremented", counter)
		}
	}
	gauges := make(map[string]bool)
	for _, g := range snap.Gauges {
		gauges[g.Name] = true
	}
	for _, gauge := range []string{
		"admission.total_buffers", "admission.used_buffers",
		"admission.total_cpu", "admission.total_bus",
	} {
		if !gauges[gauge] {
			t.Errorf("gauge %s never set", gauge)
		}
	}
	hists := make(map[string]int64)
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Hist.N
	}
	for _, hist := range []string{
		"stream.chunk_latency_us", "storage.read_time_us", "deadline.lateness_us",
	} {
		if hists[hist] == 0 {
			t.Errorf("histogram %s has no observations", hist)
		}
	}
}
