package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime/metrics"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/schema"
)

// env is what one pass over a workload runs under: the host clock, the
// seed, the parallelism handed to avdb, and — in the traced pass only —
// the span recorder and the decorating activity kit.
type env struct {
	sw      *stopwatch
	seed    int64
	workers int       // Config.Workers = Config.EngineWorkers
	rec     *recorder // nil: untraced
	kit     kit       // zero: bare activities
	smoke   bool
	obs     *bool // overrides the workload's own obs setting (the obs probe)

	setupSpan int32 // the span the current build's catalog inserts hang under
}

// rngFor derives an independent deterministic stream from the run seed:
// salt names the consumer (clip synthesis, shuffle, query mix, …) and n
// the wave or item, so adding a consumer never shifts another's draws.
func (e *env) rngFor(salt string, n int) *rand.Rand {
	return rand.New(rand.NewSource(e.subSeed(salt, n)))
}

func (e *env) subSeed(salt string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", e.seed, salt, n)
	return int64(h.Sum64() >> 1)
}

// clip is one playable library entry and what the checks expect of it.
type clip struct {
	en     *entry
	value  media.Value // the stored representation bound at playback
	frames int
	width  int
	height int
	attr   string // the attribute (and track, for a tcomp) holding the video
	track  string

	audioSamples int64 // narration samples an audio sink must play; 0 without audio

	wantHash   uint64 // FNV-64a of the frames a window must show
	haveHash   bool
	hashFrames func() (uint64, error) // computes wantHash on first use
}

// expectedHash returns the FNV-64a a window playing the whole clip must
// reproduce, computing it on first use (outside every timed phase).
func (c *clip) expectedHash() (uint64, error) {
	if !c.haveHash {
		h, err := c.hashFrames()
		if err != nil {
			return 0, err
		}
		c.wantHash, c.haveHash = h, true
	}
	return c.wantHash, nil
}

func hashFrames(frames []*media.Frame) uint64 {
	h := fnv.New64a()
	for _, f := range frames {
		h.Write(f.Pix)
	}
	return h.Sum64()
}

// platform is one built instance of a workload: the database on its
// simulated hardware, the library, and the catalog model.
type platform struct {
	db      *core.Database
	disks   []*device.Disk
	jukebox *device.Jukebox
	link    *netsim.Link
	clips   []*clip
	model   *catalogModel
	col     *obs.Collector

	quality   media.VideoQuality // what windows expect; zero accepts any
	tolerance avtime.WorldTime   // the sinks' lateness tolerance
	bindRate  media.DataRate     // storage reservation per stream
	linkRate  media.DataRate     // link reservation per stream

	// Set-up breakdown, host nanoseconds.
	synthNS, placeNS int64
	synthFrames      int64
	speechSeconds    float64
	speechNS         int64
	placedBytes      int64

	// Peaks sampled by the driver at phase boundaries.
	peakDiskReserved media.DataRate
	peakLinkReserved media.DataRate
	peakAdmission    sched.Resources

	// What the layer probes replay.
	probeDecode    media.Value    // an encoded value to decode, nil if the workload decodes nothing
	probeEncode    []*media.Frame // raw frames to encode, nil if it encodes nothing
	probeW, probeH int            // geometry of probeDecode
	netChunkBytes  int64          // typical size of a chunk crossing the link
	rawBytes       int64          // raw size of the encoded library, for the compression ratio
	storedBytes    int64          // its stored size
	seqRounds      bool           // readers are composite children: rounds are per-graph tick numbers

	extra any // workload-private state
}

// compressionRatio is raw bytes per stored byte over the encoded part of
// the library; 0 when nothing is encoded.
func (p *platform) compressionRatio() float64 {
	return ratio(float64(p.rawBytes), float64(p.storedBytes))
}

// samplePeaks records the reservation high-water marks; the driver calls
// it while a wave's sessions are all open.
func (p *platform) samplePeaks() {
	for _, d := range p.disks {
		if r := d.ReservedBandwidth(); r > p.peakDiskReserved {
			p.peakDiskReserved = r
		}
	}
	if r := p.link.Reserved(); r > p.peakLinkReserved {
		p.peakLinkReserved = r
	}
	u := p.db.Admission().Used()
	if u.Buffers > p.peakAdmission.Buffers {
		p.peakAdmission.Buffers = u.Buffers
	}
	if u.CPU > p.peakAdmission.CPU {
		p.peakAdmission.CPU = u.CPU
	}
	if u.Bus > p.peakAdmission.Bus {
		p.peakAdmission.Bus = u.Bus
	}
}

// quiescent checks the conservation invariants that must hold whenever
// no session is open: nothing reserved at admission, on any disk, or on
// the link.
func (p *platform) quiescent() error {
	if u := p.db.Admission().Used(); !u.IsZero() {
		return fmt.Errorf("admission still holds %v after the last close", u)
	}
	for _, d := range p.disks {
		if r := d.ReservedBandwidth(); r != 0 {
			return fmt.Errorf("disk %s still has %v reserved after the last close", d.ID(), r)
		}
	}
	if r := p.link.Reserved(); r != 0 {
		return fmt.Errorf("link %s still has %v reserved after the last close", p.link.ID(), r)
	}
	return nil
}

// planKind says what a generated session does.
type planKind int

const (
	planPlay   planKind = iota // read a library clip to a window
	planRecord                 // digitize, encode and write a new clip
)

// sessionPlan is one client of a wave, as generated from the seed.
type sessionPlan struct {
	idx    int
	kind   planKind
	clip   int            // library index (planPlay)
	prio   sched.Priority // service class
	arrive int            // open loop: the pacer frame at which the client arrives
	sample bool           // keeps its frames so the output hash can be checked
}

// live is one plan being executed.
type live struct {
	plan   *sessionPlan
	clip   *clip
	sess   *core.Session
	pb     *core.Playback
	reader *activities.VideoReader // the source a degradation path rebinds
	win    *activities.VideoWindow
	stall  *sched.StallDetector  // armed on overload_ramp's windows
	dac    *activities.AudioSink // narration sink, nil without audio
	rec    *recording            // planRecord
	span   int32

	netConns []*activity.Connection // the connections that ride the link
	decodes  bool                   // the sink decodes what it shows

	grant              *sched.Grant     // held outside the session (overload_ramp)
	t0                 avtime.WorldTime // virtual start of the run
	openNS             int64            // host time of Select…Start
	refused            bool             // turned away by admission, bandwidth or overload control
	refusedByAdmission bool
	err                error // failed unexpectedly
	done               bool  // settled and closed
}

// waveResult is everything one wave produced.
type waveResult struct {
	index     int
	attempted int   // sessions attempted
	served    int   // admitted and ran to completion
	failed    int   // unexpected errors: sessions, browse actions, checks
	frames    int64 // video frames presented or committed
	due       int64 // video frames due over all attempted sessions
	onTime    int64 // frames presented within tolerance
	steps     int64 // session ticks executed (session-steps)
	bytes     int64 // payload bytes moved over connections

	// Work counts the layer attribution multiplies probe costs by.
	reads            int64 // chunk or block reads issued to storage streams
	decoded, encoded int64 // frames through codec decode / encode
	netChunks        int64 // chunks that crossed the network link
	placedBytes      int64 // media bytes placed during the wave
	refusedAdmission int   // refusals by the admission budget
	stalls           int64 // sink stall episodes
	handlerNS        int64 // open loop: host time inside the arrival handler
	checkNS          int64 // output checks done inside a timed phase, taken off its clock

	openNS, runNS, closeNS int64     // stream-phase host time
	opens                  []float64 // per session, µs
	browses                []browseResult
	mallocs                uint64 // heap allocations across the stream phases
	heapLive               uint64 // live heap at the wave boundary
	fingerprint            uint64
	errs                   []error
}

// streamNS is the host time of the wave's stream phases.
func (w *waveResult) streamNS() int64 { return w.openNS + w.runNS + w.closeNS }

func (w *waveResult) fail(err error) {
	w.failed++
	if len(w.errs) < 8 {
		w.errs = append(w.errs, err)
	}
}

// isRefusal reports whether err is the system declining a client — out
// of admission budget, device or link bandwidth, or shed by overload
// control — rather than a malfunction.
func isRefusal(err error) bool {
	return errors.Is(err, core.ErrOverloaded) ||
		errors.Is(err, sched.ErrAdmission) ||
		errors.Is(err, device.ErrBandwidth) ||
		errors.Is(err, netsim.ErrBandwidth)
}

// workload is what the four benchmark workloads implement.
type workload interface {
	spec() *spec
	// build creates the platform and its fixtures from the seed.
	build(e *env) (*platform, error)
	// plan generates wave w's clients.
	plan(e *env, p *platform, w int) []sessionPlan
	// wire creates one client's activities and says how they connect and
	// what they bind; openWired turns that into the §4.3 program.
	wire(e *env, p *platform, l *live) (*wiring, error)
	// settle runs after the client's stream ended and before its session
	// closes: workload-specific outputs (a recording's commit).
	settle(e *env, p *platform, l *live, res *waveResult, fp *fingerprinter) error
}

// waveFinisher is implemented by a workload with work to do once every
// client of a wave has closed, still inside the wave's close phase
// (record_and_catalog deletes old objects there).
type waveFinisher interface {
	afterWave(e *env, p *platform, res *waveResult, waveSpan int32)
}

// memSample reads the counters the alloc and heap metrics use: objects
// allocated so far, and the heap the last completed garbage collection
// found live.  The live heap is what the program retains; bytes in use
// at an arbitrary instant also count garbage the collector has not
// reached yet, which depends on when its cycles happen to fall.
func memSample() (mallocs, heapLive uint64) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// edge is one connection of a wiring; a positive rate marks a connection
// that crosses the database/application boundary and reserves that much
// of the link.
type edge struct {
	from     activity.Activity
	fromPort string
	to       activity.Activity
	toPort   string
	rate     media.DataRate
}

// wiring is one client's activity graph before it is installed anywhere.
// The measured passes install it in a session (openWired); the activity
// probe runs the very same wiring under a bare Graph.Run with the values
// bound directly, which is how executor cost is separated from engine
// cost.
type wiring struct {
	nodes  []activity.Activity
	res    []sched.Resources // admission bundle per node
	edges  []edge
	timers []*tickTimer // the decorators' timers, nil entries when untraced
	// bind attaches the database value through the session (BindValue,
	// BindClip); nil when the graph binds nothing (a recording).
	bind func(s *core.Session, oid schema.OID) error
	// direct binds the same value straight onto the activities.
	direct func() error
}

// openWired is the §4.3 program up to (not including) Start: find the
// clip by query, connect, create the activities (allocating admission
// resources), connect them (allocating link bandwidth), bind the value
// (reserving the storage stream).
func openWired(e *env, wl workload, p *platform, l *live) error {
	r := e.rec
	id := r.begin(l.span, "activities", "New")
	w, err := wl.wire(e, p, l)
	r.end(id)
	if err != nil {
		return err
	}
	if l.plan.sample {
		if l.win != nil {
			l.win.KeepFrames()
		}
		for _, t := range w.timers {
			t.sample(r, l.span)
		}
	}
	var oid schema.OID
	if w.bind != nil {
		if oid, err = oidOf(e, p, l); err != nil {
			return err
		}
	}
	id = r.begin(l.span, "core", "Connect")
	l.sess, err = p.db.Connect(fmt.Sprintf("client-%d", l.plan.idx), p.link.ID())
	r.end(id)
	if err != nil {
		return err
	}
	l.sess.SetPriority(l.plan.prio)
	for i, n := range w.nodes {
		id = r.begin(l.span, "core", "Install")
		err = l.sess.Install(n, w.res[i])
		r.end(id)
		if err != nil {
			return err
		}
	}
	for _, ed := range w.edges {
		id = r.begin(l.span, "core", "ConnectPorts")
		conn, err := l.sess.Connect(ed.from, ed.fromPort, ed.to, ed.toPort, ed.rate)
		r.end(id)
		if err != nil {
			return err
		}
		if conn.Network() != nil {
			l.netConns = append(l.netConns, conn)
		}
	}
	if w.bind != nil {
		id = r.begin(l.span, "core", "Bind")
		err = w.bind(l.sess, oid)
		r.end(id)
	}
	return err
}

// openOne opens l under a session span and the open timer.
func openOne(e *env, wl workload, p *platform, l *live, waveSpan int32) {
	l.span = e.rec.begin(waveSpan, "bench", "session")
	start := e.sw.now()
	err := openWired(e, wl, p, l)
	l.openNS += e.sw.now() - start
	if err != nil {
		refuse(l, err)
		abandon(e, l)
	}
}

// refuse files err as a refusal or a failure.
func refuse(l *live, err error) {
	if isRefusal(err) {
		l.refused = true
		l.refusedByAdmission = errors.Is(err, sched.ErrAdmission)
	} else {
		l.err = err
	}
}

// startOne calls Session.Start, still on the open timer.
func startOne(e *env, p *platform, l *live) {
	l.t0 = p.db.Clock().Now()
	start := e.sw.now()
	id := e.rec.begin(l.span, "core", "Start")
	pb, err := l.sess.Start()
	e.rec.end(id)
	l.openNS += e.sw.now() - start
	if err != nil {
		refuse(l, err)
		abandon(e, l)
		return
	}
	l.pb = pb
}

// abandon releases whatever a refused or failed client had acquired.
func abandon(e *env, l *live) {
	if l.grant != nil {
		l.grant.Release()
		l.grant = nil
	}
	if l.sess != nil {
		id := e.rec.begin(l.span, "core", "Close")
		l.sess.Close()
		e.rec.end(id)
	}
	l.done = true
	e.rec.end(l.span)
}

// finishOne settles a client whose stream has ended: collect its stats,
// account its frames, run the workload's settle step and close it.
func finishOne(e *env, wl workload, p *platform, l *live, res *waveResult, h *lateHist, fp *fingerprinter) {
	if l.done {
		return
	}
	l.done = true
	id := e.rec.begin(l.span, "core", "Wait")
	stats, err := l.pb.Wait()
	e.rec.end(id)
	if err != nil {
		l.err = err
	}
	if stats != nil {
		res.steps += int64(stats.Ticks)
		res.bytes += stats.BytesMoved
	}
	if l.err == nil {
		if err := account(e, p, l, res, h, fp, stats); err != nil {
			l.err = err
		}
	}
	if l.err == nil {
		if err := wl.settle(e, p, l, res, fp); err != nil {
			l.err = err
		}
	}
	if l.grant != nil {
		l.grant.Release()
		l.grant = nil
	}
	id = e.rec.begin(l.span, "core", "Close")
	if err := l.sess.Close(); err != nil && l.err == nil {
		l.err = fmt.Errorf("bench: closing %s: %w", l.sess.ID(), err)
	}
	e.rec.end(id)
	e.rec.end(l.span)
}

// tally folds a finished client into the wave's counts.
func tally(l *live, res *waveResult) {
	res.attempted++
	res.opens = append(res.opens, float64(l.openNS)/1e3)
	switch {
	case l.err != nil:
		res.fail(l.err)
	case l.refused:
		if l.refusedByAdmission {
			res.refusedAdmission++
		}
	default:
		res.served++
	}
}

// dueFrames is how many video frames the plan owes its viewer.
func dueFrames(wl workload, p *platform, pl *sessionPlan) int {
	if pl.kind == planRecord {
		return wl.spec().recordFrames
	}
	return p.clips[pl.clip].frames
}

// runWave drives one wave: a browse burst, then the stream phases.  The
// caller's goroutine is the only load generator.
func runWave(e *env, wl workload, p *platform, w int, runSpan int32, h *lateHist) *waveResult {
	sp := wl.spec()
	res := &waveResult{index: w}
	waveSpan := e.rec.begin(runSpan, "bench", "wave")
	defer e.rec.end(waveSpan)

	// Browse burst.
	rng := e.rngFor("browse", w)
	actions := make([]*browseAction, sp.browsePerWave)
	for i := range actions {
		actions[i] = p.model.newBrowse(rng)
	}
	phase := e.rec.begin(waveSpan, "bench", "browse")
	for _, a := range actions {
		br := a.run(p.db, e.sw, e.rec, phase)
		if br.err != nil {
			res.fail(br.err)
		} else if !br.ok {
			res.fail(fmt.Errorf("bench: wave %d: a browse action returned the wrong objects", w))
		}
		res.browses = append(res.browses, br)
	}
	e.rec.end(phase)

	plans := wl.plan(e, p, w)
	lives := make([]*live, len(plans))
	for i := range plans {
		lives[i] = &live{plan: &plans[i]}
		res.due += int64(dueFrames(wl, p, &plans[i]))
	}
	fp := newFingerprinter()
	m0, _ := memSample()
	if sp.openLoop {
		runOpenLoop(e, wl, p, lives, res, waveSpan, h, fp)
	} else {
		runClosedLoop(e, wl, p, lives, res, waveSpan, h, fp)
	}
	m1, heap := memSample()
	res.mallocs, res.heapLive = m1-m0, heap
	for _, l := range lives {
		tally(l, res)
	}
	res.fingerprint = fp.sum()
	if err := p.quiescent(); err != nil {
		res.fail(fmt.Errorf("bench: wave %d: %w", w, err))
	}
	return res
}

// runClosedLoop is the closed-loop stream phase: open every client,
// start them all into the same first engine step, wait for all, close.
func runClosedLoop(e *env, wl workload, p *platform, lives []*live, res *waveResult, waveSpan int32, h *lateHist, fp *fingerprinter) {
	phase := e.rec.begin(waveSpan, "bench", "open")
	start := e.sw.now()
	for _, l := range lives {
		openOne(e, wl, p, l, waveSpan)
	}
	p.db.Engine().Pause()
	for _, l := range lives {
		if !l.done {
			startOne(e, p, l)
		}
	}
	p.samplePeaks()
	opened := e.sw.now()
	res.openNS = opened - start
	e.rec.end(phase)

	phase = e.rec.begin(waveSpan, "bench", "run")
	p.db.Engine().Resume()
	for _, l := range lives {
		if !l.done {
			// The first Wait spans the whole run; the rest return at once.
			id := e.rec.begin(phase, "core", "Wait")
			l.pb.Wait()
			e.rec.end(id)
		}
	}
	ran := e.sw.now()
	res.runNS = ran - opened
	e.rec.end(phase)

	phase = e.rec.begin(waveSpan, "bench", "close")
	for _, l := range lives {
		finishOne(e, wl, p, l, res, h, fp)
	}
	if wf, ok := wl.(waveFinisher); ok {
		wf.afterWave(e, p, res, phase)
	}
	res.closeNS = e.sw.now() - ran - res.checkNS
	e.rec.end(phase)
}

// account checks a finished playback's outputs and folds its frames into
// the wave: frame count, lateness of every frame, the sampled hash, and
// the session's line of the wave fingerprint.
func account(e *env, p *platform, l *live, res *waveResult, h *lateHist, fp *fingerprinter, stats *runStats) error {
	if l.plan.kind == planRecord {
		return nil // accounted at commit, in settle
	}
	shown := l.win.FramesShown()
	if shown != l.clip.frames {
		return fmt.Errorf("bench: %s showed %d frames of %q, want %d", l.sess.ID(), shown, l.clip.en.title, l.clip.frames)
	}
	if l.dac != nil && l.dac.SamplesPlayed() != l.clip.audioSamples {
		return fmt.Errorf("bench: %s played %d narration samples of %q, want %d", l.sess.ID(), l.dac.SamplesPlayed(), l.clip.en.title, l.clip.audioSamples)
	}
	arrivals := l.win.Arrivals()
	rate := avtime.RateVideo30
	for i, a := range arrivals {
		h.add(int64(a - (l.t0 + rate.DurationOf(avtime.ObjectTime(i)))))
	}
	misses := l.win.Monitor().Misses()
	if l.stall != nil {
		res.stalls += int64(l.stall.Episodes())
	}
	res.frames += int64(shown)
	res.onTime += int64(shown - misses)
	res.reads += int64(shown)
	if l.decodes {
		res.decoded += int64(shown)
	}
	for _, c := range l.netConns {
		res.netChunks += c.Chunks()
	}
	var first, last avtime.WorldTime
	if len(arrivals) > 0 {
		first, last = arrivals[0]-l.t0, arrivals[len(arrivals)-1]-l.t0
	}
	fp.session(l.plan.idx, stats.BytesMoved, stats.Ticks, misses, first, last)
	if l.plan.sample {
		// Hashing every frame of the clip is the harness's own work, done
		// inside a timed phase: it is taken off the phase's clock.
		start := e.sw.now()
		defer func() { res.checkNS += e.sw.now() - start }()
		want, err := l.clip.expectedHash()
		if err != nil {
			return err
		}
		if got := hashFrames(l.win.Frames()); got != want {
			return fmt.Errorf("bench: %s presented frames hashing to %016x, the clip's are %016x", l.sess.ID(), got, want)
		}
	}
	return nil
}

// fingerprinter folds every session's virtual-time outcome of one wave
// into one FNV-64a — the house determinism invariant in one number: it
// must not depend on Workers, EngineWorkers or GOMAXPROCS.
type fingerprinter struct{ h hash.Hash64 }

func newFingerprinter() *fingerprinter { return &fingerprinter{h: fnv.New64a()} }

func (f *fingerprinter) session(idx int, bytes int64, ticks, misses int, first, last avtime.WorldTime) {
	fmt.Fprintf(f.h, "%d:%d:%d:%d:%d:%d;", idx, bytes, ticks, misses, first, last)
}

func (f *fingerprinter) note(format string, args ...any) { fmt.Fprintf(f.h, format, args...) }

func (f *fingerprinter) sum() uint64 { return f.h.Sum64() }

// oidOf finds the clip's object the way a client does: by a query.
func oidOf(e *env, p *platform, l *live) (schema.OID, error) {
	id := e.rec.begin(l.span, "query", "SelectOne")
	oid, err := p.db.SelectOne(fmt.Sprintf("select %s where title = %q", catalogClass, l.clip.en.title))
	e.rec.end(id)
	return oid, err
}
