package storage

// sched_differential_test.go is the differential harness behind PR 7's
// allocation-free IOSched rewrite: it drives the new flat scheduler
// (sched.go) and the retained old map+sort scheduler
// (sched_reference_test.go) through identical operation streams and
// fails on the first observable divergence — service order (svcEvent
// traces must be byte-identical), returned results, head positions,
// IOStats counters, and every storage.iosched.* metric.
//
// Operation streams are decoded from plain byte slices so one decoder
// serves the fixed-seed property suite here, the seed corpus under
// testdata/fuzz/FuzzSCANEDFOrder, and the fuzz target in
// sched_fuzz_test.go.  Every byte slice is a valid op stream: opcodes
// and operands are taken modulo their ranges, and a stream that runs
// out of bytes mid-operation reads zeros for the rest.
//
// Byte format (all operand bytes are consumed unconditionally so
// corpus encoders can be written without simulating scheduler state):
//
//	op = next byte % 10
//	0,1,2  submit      + 8 request bytes (into the current round)
//	3      tick        (advance the current round)
//	4,5    read        + sid, chunk, flags, 8 next-request bytes
//	6      drop        + sid
//	7      straggler   + 8 request bytes (into current round - 2)
//	8      demand note + flags (bit0: seeked)
//	9      close       (close the rounds below the current one)
//
//	request bytes: sid, disk, chunk, track, size, rate, deadline, jitter
//	read flags: bit1 has follow-on request, bit2 demand seek (bit0 unused)
//
// A "read" closes the rounds below the current one, then drives both
// schedulers through storage.go's ReadChunkTimeAt protocol: take the
// stream's result and — after a demand read on a miss — submit the
// follow-on.  The harness closes rounds itself, the way the engine does
// at the end of each step; the stream's read never services.  Closing
// only on reads and op 9 (not on every tick) lets several rounds stay
// pending, so stragglers land in an older pending round and one close
// services rounds in ascending order.  The reference keeps its
// flushBefore(round+1) for a close of round.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the seed corpus under testdata/fuzz/FuzzSCANEDFOrder")

const (
	diffSids  = 8 // streams the op decoder can address
	diffDisks = 4 // disks the op decoder can address
	diffTick  = 33 * avtime.Millisecond
)

// byteCursor walks an op stream; reads past the end return zero so any
// prefix of a valid stream is a valid stream.
type byteCursor struct {
	data []byte
	i    int
}

func (c *byteCursor) done() bool { return c.i >= len(c.data) }

func (c *byteCursor) byte() byte {
	if c.i >= len(c.data) {
		return 0
	}
	b := c.data[c.i]
	c.i++
	return b
}

// diffHarness holds the two schedulers under comparison plus the
// shared decode state.
type diffHarness struct {
	t        testing.TB
	disks    []*device.Disk
	neu      *IOSched
	ref      *refSched
	slots    [diffSids]ioSlot
	newTrace []svcEvent
	refTrace []svcEvent
	newSink  *obs.Collector
	refSink  *obs.Collector // the reference resolves every metric by name per event
	cur      int64          // current round

	// Reach counters for TestDifferentialReachesMultiRoundStates.
	maxPending  int // most rounds pending after any op
	lateInserts int // stragglers into an open round below the newest pending one
	multiCloses int // closes that serviced more than one round
}

func newDiffHarness(t testing.TB) *diffHarness {
	h := &diffHarness{t: t, newSink: obs.NewCollector(), refSink: obs.NewCollector(), cur: 1}
	for i := 0; i < diffDisks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), 4_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
		if i%2 == 0 {
			// Half the disks get track geometry, half stay on the flat
			// per-op seek model, so both SeekBetween branches are compared.
			if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
				t.Fatalf("SetGeometry: %v", err)
			}
		}
		h.disks = append(h.disks, d)
	}
	h.neu = newIOSched(h.newSink)
	h.ref = newRefSched(h.refSink)
	h.neu.svcTrace = &h.newTrace
	h.ref.svcTrace = &h.refTrace
	return h
}

// reqFrom decodes one request relative to the current round.  The
// deadline range is deliberately tiny (four quantized values around the
// next tick) so cross-stream deadline ties — the tiebreak cases the
// SCAN-EDF key exists for — occur constantly.
func (h *diffHarness) reqFrom(c *byteCursor) ioReq {
	sid := int64(c.byte() % diffSids)
	disk := h.disks[int(c.byte())%diffDisks]
	chunk := int(c.byte() % 64)
	track := int(c.byte() % 24)
	bytes := int64(c.byte()%7+1) * 300
	var rate media.DataRate
	if rb := c.byte(); rb%4 != 0 {
		rate = media.DataRate(rb%8+1) * media.MBPerSecond / 8
	}
	deadline := avtime.WorldTime(h.cur+1)*diffTick + avtime.WorldTime(c.byte()%4)*avtime.Millisecond
	now := avtime.WorldTime(h.cur)*diffTick + avtime.WorldTime(c.byte()%100)*avtime.Microsecond
	return ioReq{
		sid: sid, chunk: chunk, bytes: bytes, disk: disk, track: track,
		rate: rate, now: now, deadline: deadline, slot: &h.slots[sid],
	}
}

// refReq strips the slot pointer: the reference delivers through its
// results map, not the slot.
func refReq(q ioReq) ioReq {
	q.slot = nil
	return q
}

func (h *diffHarness) opSubmit(c *byteCursor, round int64) {
	q := h.reqFrom(c)
	h.neu.submit(round, q)
	h.ref.submit(round, refReq(q))
}

func (h *diffHarness) opRead(c *byteCursor) {
	sid := int64(c.byte() % diffSids)
	chunk := int(c.byte() % 64)
	flags := c.byte()
	var next *ioReq
	q := h.reqFrom(c) // always consume the operand bytes
	if flags&2 != 0 {
		next = &q
	}
	h.closeRound(h.cur - 1)

	costN, okN := h.neu.take(&h.slots[sid], chunk)
	costR, okR := h.ref.take(sid, chunk)
	if okN != okR || costN != costR {
		h.t.Fatalf("read(sid=%d chunk=%d) diverged: new (%v, %v) vs ref (%v, %v)",
			sid, chunk, costN, okN, costR, okR)
	}
	if !okN {
		// Miss: the read falls back to a demand read, which notes itself.
		seeked := flags&4 != 0
		h.neu.noteDemand(seeked)
		h.ref.noteDemand(seeked)
	}
	if next != nil {
		h.neu.submit(h.cur, *next)
		h.ref.submit(h.cur, refReq(*next))
	}
}

// closeRound closes round on the flat scheduler and flushes below
// round+1 on the reference, which is the same cut.
func (h *diffHarness) closeRound(round int64) {
	n := 0
	for _, r := range h.neu.pending {
		if r.seq <= round {
			n++
		}
	}
	if n > 1 {
		h.multiCloses++
	}
	h.neu.closeRound(round)
	h.ref.flushBefore(round + 1)
}

func (h *diffHarness) opDrop(c *byteCursor) {
	sid := int64(c.byte() % diffSids)
	h.neu.drop(&h.slots[sid])
	h.ref.drop(sid)
}

func (h *diffHarness) opDemand(c *byteCursor) {
	seeked := c.byte()&1 != 0
	h.neu.noteDemand(seeked)
	h.ref.noteDemand(seeked)
}

// checkStep compares everything cheap after every operation so a
// divergence is pinned to the op that caused it.
func (h *diffHarness) checkStep(op int, n int) {
	h.t.Helper()
	if sn, sr := h.neu.Stats(), h.ref.Stats(); sn != sr {
		h.t.Fatalf("op %d (#%d): stats diverged:\nnew %+v\nref %+v", op, n, sn, sr)
	}
	if fn, fr := h.neu.closed, h.ref.flushed; fn != fr {
		h.t.Fatalf("op %d (#%d): closed mark diverged: new %d ref %d", op, n, fn, fr)
	}
	h.checkPendingSorted()
}

// checkPendingSorted asserts the flat scheduler's structural invariants:
// rounds ascending, batches in device-ID order, and every batch strictly
// ordered under the SCAN-EDF key (strict because sid is unique per
// batch, so no two members may compare equal).
func (h *diffHarness) checkPendingSorted() {
	h.t.Helper()
	h.neu.mu.Lock()
	defer h.neu.mu.Unlock()
	for ri, r := range h.neu.pending {
		if ri > 0 && h.neu.pending[ri-1].seq >= r.seq {
			h.t.Fatalf("pending rounds out of order: %d then %d", h.neu.pending[ri-1].seq, r.seq)
		}
		for bi := range r.batches {
			b := &r.batches[bi]
			if bi > 0 && r.batches[bi-1].devID >= b.devID {
				h.t.Fatalf("round %d batches out of device order: %q then %q",
					r.seq, r.batches[bi-1].devID, b.devID)
			}
			for j := 1; j < len(b.reqs); j++ {
				a, c := &b.reqs[j-1], &b.reqs[j]
				if !reqBefore(a, c) || reqBefore(c, a) {
					h.t.Fatalf("round %d disk %s: batch not strictly SCAN-EDF ordered at %d: %+v then %+v",
						r.seq, b.devID, j, *a, *c)
				}
			}
		}
	}
}

// finish drains both schedulers and compares every remaining observable:
// full service traces, sink metrics, head positions, and per-stream
// result state.
func (h *diffHarness) finish() {
	h.t.Helper()
	h.closeRound(h.cur + 2)

	if len(h.newTrace) != len(h.refTrace) {
		h.t.Fatalf("service traces diverged in length: new %d ref %d", len(h.newTrace), len(h.refTrace))
	}
	for i := range h.newTrace {
		if h.newTrace[i] != h.refTrace[i] {
			h.t.Fatalf("service traces diverged at event %d:\nnew %+v\nref %+v",
				i, h.newTrace[i], h.refTrace[i])
		}
	}
	if mn, mr := h.newSink.Snapshot().MetricsText(), h.refSink.Snapshot().MetricsText(); mn != mr {
		h.t.Fatalf("sink metrics diverged after the drain:\nnew %s\nref %s", mn, mr)
	}
	for _, d := range h.disks {
		if hn, hr := h.neu.heads[d], h.ref.heads[d.ID()]; hn != hr {
			h.t.Fatalf("disk %s head diverged: new %d ref %d", d.ID(), hn, hr)
		}
	}
	for sid := int64(0); sid < diffSids; sid++ {
		slot := &h.slots[sid]
		res, ok := h.ref.results[sid]
		if slot.full != ok {
			h.t.Fatalf("stream %d result presence diverged: new %v ref %v", sid, slot.full, ok)
		}
		if ok && (slot.chunk != res.chunk || slot.cost != res.cost) {
			h.t.Fatalf("stream %d result diverged: new {%d %v} ref %+v", sid, slot.chunk, slot.cost, res)
		}
	}
	if sn, sr := h.neu.Stats(), h.ref.Stats(); sn != sr {
		h.t.Fatalf("final stats diverged:\nnew %+v\nref %+v", sn, sr)
	}
}

// runDifferential decodes data as an op stream, drives both schedulers,
// and fails t on any divergence.  It is the single entry point shared by
// the property suite, the seed corpus test, and FuzzSCANEDFOrder.
func runDifferential(t testing.TB, data []byte) *diffHarness {
	h := newDiffHarness(t)
	c := &byteCursor{data: data}
	for n := 0; !c.done() && n < 4096; n++ {
		op := int(c.byte() % 10)
		switch op {
		case 0, 1, 2:
			h.opSubmit(c, h.cur)
		case 3:
			h.cur++
		case 4, 5:
			h.opRead(c)
		case 6:
			h.opDrop(c)
		case 7:
			if n := len(h.neu.pending); h.cur-2 >= h.neu.closed && n > 0 && h.neu.pending[n-1].seq > h.cur-2 {
				h.lateInserts++
			}
			h.opSubmit(c, h.cur-2)
		case 8:
			h.opDemand(c)
		case 9:
			h.closeRound(h.cur - 1)
		}
		h.checkStep(op, n)
		h.maxPending = max(h.maxPending, len(h.neu.pending))
	}
	h.finish()
	return h
}

// TestDifferentialRandomOpStreams is the fixed-seed property suite:
// arbitrary request streams — random deadlines, tracks, disks, sizes,
// rates, mid-round cancellations, stragglers and demand reads — must
// drive both schedulers identically.
func TestDifferentialRandomOpStreams(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 512+rng.Intn(3072))
			rng.Read(data)
			runDifferential(t, data)
		})
	}
}

// TestDifferentialReachesMultiRoundStates guards the harness's own
// reach: the property streams must leave several rounds pending, land
// stragglers in an open round below the newest pending one (roundFor's
// backward scan and insertion) and close more than one round at once
// (ascending multi-round service).  A decoder that closed every round on each tick would pass
// the differential checks while comparing none of these states.
func TestDifferentialReachesMultiRoundStates(t *testing.T) {
	var maxPending, lateInserts, multiCloses int
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 512+rng.Intn(3072))
		rng.Read(data)
		h := runDifferential(t, data)
		maxPending = max(maxPending, h.maxPending)
		lateInserts += h.lateInserts
		multiCloses += h.multiCloses
	}
	if maxPending < 3 || lateInserts == 0 || multiCloses == 0 {
		t.Fatalf("property streams reach too little: max %d pending rounds, %d stragglers below the newest pending round, %d multi-round closes",
			maxPending, lateInserts, multiCloses)
	}
	t.Logf("max %d pending rounds, %d stragglers below the newest pending round, %d multi-round closes", maxPending, lateInserts, multiCloses)
}

// TestDifferentialExperimentTraces replays the workload-shaped op
// streams that also seed the fuzz corpus: steady striped playback,
// multi-tenant key-collision pressure, and overload with cancellations.
func TestDifferentialExperimentTraces(t *testing.T) {
	for name, data := range corpusSeeds() {
		name, data := name, data
		t.Run(name, func(t *testing.T) { runDifferential(t, data) })
	}
}

// TestSubmitOrderIndependence pins the determinism argument: the
// SCAN-EDF key is total, so shuffling the submission order of a round
// must not change the service trace, head walks, or any counter.
func TestSubmitOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqs := make([]byte, 0, 9*24)
	for i := 0; i < 24; i++ {
		reqs = append(reqs, 0) // submit op
		operands := make([]byte, 8)
		rng.Read(operands)
		reqs = append(reqs, operands...)
	}
	run := func(order []int) ([]svcEvent, IOStats) {
		h := newDiffHarness(t)
		c := &byteCursor{}
		for _, i := range order {
			c.data = reqs[9*i+1 : 9*(i+1)]
			c.i = 0
			q := h.reqFrom(c)
			// One submission per stream per round, like the executor's
			// tick barrier guarantees: sid collisions would make
			// same-round replacement — deliberately last-writer-wins —
			// look like an order dependence.
			q.sid = int64(i)
			q.slot = nil
			h.neu.submit(h.cur, q)
		}
		h.neu.closeRound(h.cur)
		return h.newTrace, h.neu.Stats()
	}
	base := make([]int, 24)
	for i := range base {
		base[i] = i
	}
	wantTrace, wantStats := run(base)
	for trial := 0; trial < 16; trial++ {
		order := append([]int(nil), base...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		trace, stats := run(order)
		if stats != wantStats {
			t.Fatalf("trial %d: stats depend on submission order:\ngot  %+v\nwant %+v", trial, stats, wantStats)
		}
		if len(trace) != len(wantTrace) {
			t.Fatalf("trial %d: trace length depends on submission order: %d vs %d",
				trial, len(trace), len(wantTrace))
		}
		for i := range trace {
			if trace[i] != wantTrace[i] {
				t.Fatalf("trial %d: service order depends on submission order at event %d:\ngot  %+v\nwant %+v",
					trial, i, trace[i], wantTrace[i])
			}
		}
	}
}

// TestSCANEDFKeyTotalOrder pins the fix for the historical sort.Slice
// instability hazard: within one batch no two distinct requests may
// compare equal under the SCAN-EDF key.  Requests from the same stream
// cannot coexist (insert replaces by sid), and for distinct streams the
// sid tiebreak forces strictness even when deadline and track collide.
func TestSCANEDFKeyTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := newDiffHarness(t)
	for trial := 0; trial < 256; trial++ {
		a, b := h.reqFrom(&byteCursor{data: randBytes(rng, 8)}), h.reqFrom(&byteCursor{data: randBytes(rng, 8)})
		if trial%4 == 0 {
			// Force the hard case: full key-prefix collision.
			b.deadline, b.track = a.deadline, a.track
		}
		lt, gt := reqBefore(&a, &b), reqBefore(&b, &a)
		if lt && gt {
			t.Fatalf("reqBefore is not antisymmetric for %+v vs %+v", a, b)
		}
		if !lt && !gt && a.sid != b.sid {
			t.Fatalf("distinct streams compare equal under the SCAN-EDF key: %+v vs %+v", a, b)
		}
	}
	// Same-stream duplicates never coexist: insertion replaces.
	var b diskBatch
	q := h.reqFrom(&byteCursor{data: []byte{1, 0, 3, 4, 2, 5, 1, 0}})
	b.insert(q, true)
	q.chunk++
	b.insert(q, true)
	if len(b.reqs) != 1 || b.reqs[0].chunk != q.chunk {
		t.Fatalf("same-stream reinsert did not replace: %+v", b.reqs)
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// --- seed corpus -----------------------------------------------------

// corpusSeeds returns the workload-shaped op streams committed under
// testdata/fuzz/FuzzSCANEDFOrder.  Regenerate the files with
//
//	go test -run TestFuzzCorpusSeeds -update-corpus ./internal/storage
//
// after changing an encoder.
func corpusSeeds() map[string][]byte {
	return map[string][]byte{
		"stripe_steady":    corpusStripeSteady(),
		"tenancy_ties":     corpusTenancyTies(),
		"overload_cancels": corpusOverloadCancels(),
	}
}

// emitRead appends one read op with a follow-on request.
func emitRead(data []byte, sid, chunk byte, flags byte, next [8]byte) []byte {
	data = append(data, 4, sid, chunk, flags)
	return append(data, next[:]...)
}

// corpusStripeSteady is steady striped playback: eight streams read
// sequentially over four disks, each read prefetching the next chunk on
// its round-robin home disk.
func corpusStripeSteady() []byte {
	var data []byte
	for tick := byte(0); tick < 12; tick++ {
		for sid := byte(0); sid < 8; sid++ {
			next := [8]byte{sid, (tick + 1) % diffDisks, tick + 1, (tick + 1) * 2 % 24, 3, 5, 1, sid}
			data = emitRead(data, sid, tick, 2, next) // flags: has next
		}
		data = append(data, 3) // tick
	}
	return data
}

// corpusTenancyTies is four sessions over one shared clip — same
// chunks, same tracks, same deadlines — so every round is decided
// purely by the sid tiebreak.
func corpusTenancyTies() []byte {
	var data []byte
	for tick := byte(0); tick < 10; tick++ {
		for sid := byte(0); sid < 4; sid++ {
			next := [8]byte{sid, tick % diffDisks, tick + 1, tick % 24, 4, 6, 0, 0}
			data = emitRead(data, sid, tick, 2, next)
		}
		data = append(data, 3)
	}
	return data
}

// corpusOverloadCancels is an overloaded disk array: tight deadlines,
// oversized requests, mid-round cancellations (drops), plus stragglers
// and demand reads between rounds.
func corpusOverloadCancels() []byte {
	var data []byte
	for tick := byte(0); tick < 10; tick++ {
		for sid := byte(0); sid < 8; sid++ {
			// submit with heavyweight operands; deadline byte 0 keeps
			// everything due immediately.
			data = append(data, 0, sid, sid%diffDisks, tick, sid*3%24, 6, 7, 0, 99)
		}
		data = append(data, 6, tick%8)                 // drop one stream's result
		data = append(data, 7, 2, 1, 9, 3, 6, 3, 1, 0) // straggler submit
		data = append(data, 8, tick)                   // demand note
		data = append(data, 3)                         // tick
		data = append(data, 9)                         // close
	}
	return data
}

// TestFuzzCorpusSeeds verifies the committed corpus files stay in sync
// with the encoders (and rewrites them under -update-corpus).  The files
// also run automatically as FuzzSCANEDFOrder seeds during plain go test.
func TestFuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSCANEDFOrder")
	for name, data := range corpusSeeds() {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus seed %s missing (run with -update-corpus): %v", name, err)
		}
		if string(got) != want {
			t.Errorf("corpus seed %s out of sync with its encoder (run with -update-corpus)", name)
		}
	}
}
