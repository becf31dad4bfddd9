package storage

// sched_differential_test.go is the differential harness for the flat,
// allocation-free ioSched: it drives the scheduler (sched.go) and the
// map+sort reference (sched_reference_test.go) through identical
// operation streams and fails on the first observable divergence —
// service order (svcEvent traces must be byte-identical), returned
// results, head positions, IOStats counters, and every
// storage.iosched.* metric.
//
// Operation streams are decoded from plain byte slices so one decoder
// serves the fixed-seed property suite here, the seed corpus under
// testdata/fuzz/FuzzSCANEDFOrder, and the fuzz target in
// sched_fuzz_test.go.  Every byte slice is a valid op stream: opcodes
// and operands are taken modulo their ranges, and a stream that runs
// out of bytes mid-operation reads zeros for the rest.
//
// The harness has the engine's shape: one round is open, and a tick
// closes it and opens the next, the way the engine closes its round at
// the end of each step.  Reads never service.  The harness keeps the
// round mark for the flat scheduler, which has none, the way the store
// keeps it: only a read tagged with the open round takes and submits.
// The reference keeps a mark of its own and is handed every read and
// submission with its round, so it checks that decision too.
//
// Byte format (all operand bytes are consumed unconditionally so
// corpus encoders can be written without simulating scheduler state):
//
//	op = next byte % 10
//	0,1,2  submit       + 8 request bytes (into the open round)
//	3      tick         (close the open round, open the next)
//	4,5    read         + sid, chunk, flags, 8 next-request bytes
//	6      drop         + sid
//	7      straggler    + sid, chunk, flags, 8 next-request bytes
//	8      demand note  + flags (bit0: seeked)
//	9      future read  + sid, chunk, flags, 8 next-request bytes
//
//	request bytes: sid, disk, chunk, track, size, rate, deadline, jitter
//	disk byte: bits 0-1 the disk; bits 2-3 both set make the request
//	  replicated, with 1 + (bits 4-5 % 3) alternates on the next disks
//	read flags: bit1 has follow-on request, bit2 demand seek (bit0 unused)
//
// A read drives both schedulers through storage.go's ReadChunkTimeAt
// protocol: in the open round, take the stream's result and — after a
// demand read on a miss — submit the follow-on.  A read (4, 5) is
// tagged with the open round; a straggler (7) with the round before it
// and a future read (9) with the round after it, and both must end as
// demand reads that submit nothing.

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
	neu      *ioSched
	ref      *refSched
	slots    [diffSids]ioSlot
	newTrace []svcEvent
	refTrace []svcEvent
	newSink  *obs.Collector
	refSink  *obs.Collector // the reference resolves every metric by name per event
	cur      int64          // the open round

	// Reach counters for TestDifferentialReachesOpenRoundStates.
	mixedRounds  int // closes of a round with batches on >= 2 disks plus flex requests
	replacements int // same-round resubmissions that replaced a request
	staleTakes   int // takes in the open round that found another chunk's result
	stragglers   int // straggler reads that found a result and left it
	futureReads  int // future-round reads that found a result and left it
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
	h.ref = newRefSched(h.refSink, h.cur)
	h.neu.svcTrace = &h.newTrace
	h.ref.svcTrace = &h.refTrace
	return h
}

// reqFrom decodes one request relative to the open round.  The
// deadline range is deliberately tiny (four quantized values around the
// next tick) so cross-stream deadline ties — the tiebreak cases the
// SCAN-EDF key exists for — occur constantly.  A quarter of the
// requests are replicated, so the flex assignment meets direct requests
// on the disks it chooses between.
func (h *diffHarness) reqFrom(c *byteCursor) ioReq {
	sid := int64(c.byte() % diffSids)
	db := int(c.byte())
	disk := db % diffDisks
	chunk := int(c.byte() % 64)
	track := int(c.byte() % 24)
	bytes := int64(c.byte()%7+1) * 300
	var rate media.DataRate
	if rb := c.byte(); rb%4 != 0 {
		rate = media.DataRate(rb%8+1) * media.MBPerSecond / 8
	}
	deadline := avtime.WorldTime(h.cur+1)*diffTick + avtime.WorldTime(c.byte()%4)*avtime.Millisecond
	now := avtime.WorldTime(h.cur)*diffTick + avtime.WorldTime(c.byte()%100)*avtime.Microsecond
	q := ioReq{
		sid: sid, chunk: chunk, bytes: bytes, disk: h.disks[disk], track: track,
		rate: rate, now: now, deadline: deadline, slot: &h.slots[sid],
	}
	if db>>2&3 == 3 {
		for k := 1; k <= 1+(db>>4&3)%3; k++ {
			q.alts[q.nalt] = ioAlt{disk: h.disks[(disk+k)%diffDisks], track: (track + 5*k) % 24}
			q.nalt++
		}
	}
	return q
}

// refReq strips the slot pointer: the reference delivers through its
// results map, not the slot.
func refReq(q ioReq) ioReq {
	q.slot = nil
	return q
}

// submit hands q to the reference and, if round is the open one, to
// the flat scheduler, counting a same-round resubmission that replaces
// the stream's request.
func (h *diffHarness) submit(round int64, q ioReq) {
	if round == h.cur {
		var queued bool
		if q.nalt > 0 {
			_, queued = h.ref.flex[q.sid]
		} else {
			_, queued = h.ref.pending[q.disk.ID()][q.sid]
		}
		if queued {
			h.replacements++
		}
		h.neu.submit(q)
	}
	h.ref.submit(round, refReq(q))
}

// opRead is one ReadChunkTimeAt tagged with round: take the stream's
// result, note a demand read on a miss, submit the follow-on.
func (h *diffHarness) opRead(c *byteCursor, round int64) {
	sid := int64(c.byte() % diffSids)
	chunk := int(c.byte() % 64)
	flags := c.byte()
	var next *ioReq
	q := h.reqFrom(c) // always consume the operand bytes
	if flags&2 != 0 {
		next = &q
	}
	slot := &h.slots[sid]
	held := *slot
	switch {
	case round != h.cur && held.full:
		if round < h.cur {
			h.stragglers++
		} else {
			h.futureReads++
		}
	case held.full && held.chunk != chunk:
		h.staleTakes++
	}

	var costN avtime.WorldTime
	var okN bool
	if round == h.cur {
		costN, okN = slot.take(chunk)
	}
	costR, okR := h.ref.take(sid, chunk, round)
	if okN != okR || costN != costR {
		h.t.Fatalf("read(sid=%d chunk=%d round=%d) diverged: new (%v, %v) vs ref (%v, %v)",
			sid, chunk, round, costN, okN, costR, okR)
	}
	if round != h.cur && (okN || *slot != held) {
		h.t.Fatalf("read(sid=%d chunk=%d) in round %d, open %d, took or moved the stream's result: %+v -> %+v",
			sid, chunk, round, h.cur, held, *slot)
	}
	if !okN {
		// Miss: the read falls back to a demand read, which notes itself.
		seeked := flags&4 != 0
		h.neu.noteDemand(seeked)
		h.ref.noteDemand(seeked)
	}
	if next != nil {
		h.submit(round, *next)
	}
}

// closeRound closes the open round on both schedulers and opens the
// next.
func (h *diffHarness) closeRound() {
	r := &h.neu.round
	if len(r.batches) >= 2 && len(r.flex) > 0 {
		h.mixedRounds++
	}
	h.neu.closeRound()
	h.ref.closeRound(h.cur)
	h.cur++
}

// opDrop discards the stream's result, as a cache hit or a close does.
func (h *diffHarness) opDrop(c *byteCursor) {
	sid := int64(c.byte() % diffSids)
	h.slots[sid].full = false
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
	if sn, sr := h.neu.stats, h.ref.Stats(); sn != sr {
		h.t.Fatalf("op %d (#%d): stats diverged:\nnew %+v\nref %+v", op, n, sn, sr)
	}
	if h.ref.open != h.cur {
		h.t.Fatalf("op %d (#%d): open round diverged: ref %d harness %d", op, n, h.ref.open, h.cur)
	}
	h.checkOpenRound()
}

// checkOpenRound asserts the flat scheduler's structural invariants:
// batches in device-ID order, and every batch and the flex list
// strictly ordered under the SCAN-EDF key (strict because sid is unique
// per list, so no two members may compare equal).
func (h *diffHarness) checkOpenRound() {
	h.t.Helper()
	r := &h.neu.round
	strict := func(what string, reqs []ioReq) {
		for j := 1; j < len(reqs); j++ {
			a, c := &reqs[j-1], &reqs[j]
			if !reqBefore(a, c) || reqBefore(c, a) {
				h.t.Fatalf("round %d %s: not strictly SCAN-EDF ordered at %d: %+v then %+v",
					h.cur, what, j, *a, *c)
			}
		}
	}
	for bi := range r.batches {
		b := &r.batches[bi]
		if bi > 0 && r.batches[bi-1].devID >= b.devID {
			h.t.Fatalf("round %d batches out of device order: %q then %q",
				h.cur, r.batches[bi-1].devID, b.devID)
		}
		strict("disk "+b.devID, b.reqs)
	}
	strict("flex list", r.flex)
}

// finish closes the open round and compares every remaining observable:
// full service traces, sink metrics, head positions, and per-stream
// result state.
func (h *diffHarness) finish() {
	h.t.Helper()
	h.closeRound()

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
	if sn, sr := h.neu.stats, h.ref.Stats(); sn != sr {
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
			h.submit(h.cur, h.reqFrom(c))
		case 3:
			h.closeRound()
		case 4, 5:
			h.opRead(c, h.cur)
		case 6:
			h.opDrop(c)
		case 7:
			h.opRead(c, h.cur-1)
		case 8:
			h.opDemand(c)
		case 9:
			h.opRead(c, h.cur+1)
		}
		h.checkStep(op, n)
	}
	h.finish()
	return h
}

// TestDifferentialRandomOpStreams is the fixed-seed property suite:
// arbitrary request streams — random deadlines, tracks, disks, sizes,
// rates, replicated requests, mid-round cancellations, stragglers,
// future-round reads and demand reads — must drive both schedulers
// identically.
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

// TestDifferentialReachesOpenRoundStates guards the harness's own
// reach: the property streams must close rounds with batches on two or
// more disks plus replicated requests to route among them, replace a
// stream's request by a same-round resubmission, take a stale result,
// and make straggler and future-round reads that find a result and end
// as demand reads without taking it.  A decoder that never reached one
// of these would pass the differential checks while comparing none of
// it.
func TestDifferentialReachesOpenRoundStates(t *testing.T) {
	var total diffHarness
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 512+rng.Intn(3072))
		rng.Read(data)
		h := runDifferential(t, data)
		total.mixedRounds += h.mixedRounds
		total.replacements += h.replacements
		total.staleTakes += h.staleTakes
		total.stragglers += h.stragglers
		total.futureReads += h.futureReads
	}
	reach := fmt.Sprintf("%d mixed rounds, %d replacements, %d stale takes, %d stragglers, %d future-round reads",
		total.mixedRounds, total.replacements, total.staleTakes, total.stragglers, total.futureReads)
	if total.mixedRounds == 0 || total.replacements == 0 || total.staleTakes == 0 || total.stragglers == 0 || total.futureReads == 0 {
		t.Fatalf("property streams reach too little: %s", reach)
	}
	t.Log(reach)
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
			h.neu.submit(q)
		}
		h.neu.closeRound()
		return h.newTrace, h.neu.stats
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
// oversized requests, mid-round cancellations (drops), plus straggler
// and future-round reads, a replicated follow-on and demand reads
// between rounds.
func corpusOverloadCancels() []byte {
	var data []byte
	for tick := byte(0); tick < 10; tick++ {
		for sid := byte(0); sid < 8; sid++ {
			// submit with heavyweight operands; deadline byte 0 keeps
			// everything due immediately.
			data = append(data, 0, sid, sid%diffDisks, tick, sid*3%24, 6, 7, 0, 99)
		}
		data = append(data, 6, tick%8)                                  // drop one stream's result
		data = append(data, 7, 2, tick, 2, 2, 1, 9, 3, 6, 3, 1, 0)      // straggler read
		data = append(data, 9, 3, tick+1, 2, 3, 0x1d, 9, 5, 6, 3, 0, 0) // future read, replicated follow-on
		data = append(data, 8, tick)                                    // demand note
		data = append(data, 3)                                          // tick
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
