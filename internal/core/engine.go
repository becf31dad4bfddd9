package core

import (
	"context"
	"runtime/pprof"
	"sync"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// Engine is the database's multi-session run loop: the one place the
// shared virtual clock advances.  "Special devices and scheduling are
// under database control and shared between clients" (§3.3) — so a
// started playback is not a private goroutine racing the clock forward;
// it is a schedulable entity admitted into the engine's run set.
//
// Each engine step:
//
//  1. picks the earliest next-due time across admitted runs (sessions
//     may tick at different rates; no LCM is needed — the engine simply
//     steps to whichever run is due next),
//  2. ticks every run due at that time, in admission order, tagging all
//     of them with the same storage service round so their chunk
//     requests merge into shared per-disk SCAN-EDF batches,
//  3. commits the clock once, to the minimum commit horizon across the
//     surviving runs,
//  4. retires finished runs (drain, span close-out, node teardown),
//  5. feeds the overload detector (when enabled),
//  6. closes the step's storage round (Store.CloseRound): the SCAN-EDF
//     batches are serviced and the buffer pool's staged ops commit,
//  7. completes the retired runs' Playback handles.
//
// A single admitted session therefore executes the same tick times and
// commit points as Graph.Run — byte-identical RunStats and obs output
// for a store without rounds or a pool, which a standalone run reads in
// immediate mode.
//
// The loop runs on one goroutine, started lazily at first admission and
// exited when the run set drains; the step counter persists across
// restarts so storage round numbers never rewind into a closed round.
//
// Every due run ticks on the loop goroutine, one after another in
// admission order (DESIGN.md §14), so the engine is deterministic by
// construction: telemetry reaches the sink in program order, and a
// session admitted from an event handler mid-tick joins the run set at
// the same point on every run.  Clients still call in from their own
// goroutines (Start, Wait, introspection), so the engine's state, the
// run set and every shared structure a tick touches stay locked.
//
// The step path follows the same allocation-free discipline as the
// SCAN-EDF scheduler (DESIGN.md §12, §13): the due batch, the retired
// list and the run set's buckets all live in storage reused step to step,
// and per-run pprof label contexts are built once at admission — in
// steady state a step performs zero heap allocations of its own
// (pinned by TestEngineAllocsPerStep).
//
// With overload control enabled (EnableOverloadControl), the engine
// additionally closes the loop §3.3 opens at admission time: a
// per-step pressure detector watches deadline misses, SCAN-EDF round
// overruns and stall episodes, and the engine responds by degrading
// low-priority sessions first (their armed EnableDegradation paths),
// restoring them when pressure clears, and shedding new Session.Start
// calls with ErrOverloaded while the schedule is infeasible.
type Engine struct {
	db *Database

	mu       sync.Mutex
	cond     *sync.Cond
	set      sched.RunSet
	entries  map[sched.RunID]*engineEntry
	admitted []sched.RunID // active ids, admission order (ids are monotonic)
	running  bool          // loop goroutine alive
	paused   bool
	stepping bool // a step is executing outside the lock
	steps    int64
	finished int64 // runs retired since open

	// Step-path scratch, reused step to step.  Only the loop goroutine
	// (or a test driving stepOnce directly) touches these outside the
	// engine lock.
	stepBatch   []*engineEntry  // entries due this step, admission order
	retiredBuf  []*engineEntry  // entries finishing this step
	sessScratch []*Session      // degradeCandidates session snapshot
	candScratch []*Session      // degradeCandidates result buffer
	baseCtx     context.Context // label-free context restored after a step's ticks

	// overload control; all nil/zero until EnableOverloadControl
	detector      *sched.OverloadDetector
	lastIO        storage.IOStats // stats at the previous step's sample
	degradedOrder []*Session      // sweep victims, oldest first; restores pop the tail
	sweptWindow   int64           // detector window of the last sweep; the next window settles
	shedRejected  int64           // Start calls rejected with ErrOverloaded
	shedDegraded  int64           // sweep degradations performed
	shedRestored  int64           // sweep restores performed
}

// engineRun is the slice of activity.GraphRun the engine schedules
// through.  Narrowing the dependency to an interface keeps the step
// path testable in isolation: TestEngineAllocsPerStep and
// BenchmarkEngineStep admit no-op runs so the measured allocations are
// the engine's own, not the graph executor's.
type engineRun interface {
	Graph() *activity.Graph
	Rate() avtime.Rate
	Ticks() int
	Err() error
	Done() bool
	NextDue() avtime.WorldTime
	CommitHorizon() avtime.WorldTime
	SetRound(int64)
	Tick() (bool, error)
	Finish() (*activity.RunStats, error)
}

// engineEntry is one admitted playback.  The ticks/due/rate fields are
// the loop-maintained snapshot SessionsAppend reads under the engine lock:
// introspection must never call into the GraphRun itself, which the
// loop may be mid-Tick on outside the lock.
type engineEntry struct {
	id       sched.RunID
	sess     *Session
	session  string
	graph    string
	run      engineRun
	playback *Playback
	labelCtx context.Context // pprof labels, built once at admission

	rate       avtime.Rate      // immutable after Begin; cached for SessionsAppend
	ticks      int              // snapshot, written and read under the engine lock
	due        avtime.WorldTime // snapshot of the next due time, under the engine lock
	lastStalls int64            // stall episodes at the previous sample (loop goroutine)
	tickDone   bool             // the last tick finished the run (loop goroutine)

	// The retired run's outcome, held from Finish until the step
	// completes the playback (loop goroutine).
	stats *activity.RunStats
	err   error
}

func newEngine(db *Database) *Engine {
	e := &Engine{
		db:      db,
		entries: make(map[sched.RunID]*engineEntry),
		baseCtx: context.Background(),
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// tickBatch ticks every stepBatch entry in admission order, each under
// its admission-time pprof label context, and records each outcome on
// its entry.
func (e *Engine) tickBatch(step int64) {
	for _, en := range e.stepBatch {
		en.run.SetRound(step)
		pprof.SetGoroutineLabels(en.labelCtx)
		// A tick error stays on the run (Err), which the merge and the
		// retirement read; Wait returns it.
		en.tickDone, _ = en.run.Tick()
	}
	pprof.SetGoroutineLabels(e.baseCtx)
}

// EnableOverloadControl arms the engine's pressure detector and
// overload response with the given policy (zero fields defaulted).
// From then on every step feeds the detector, window boundaries run
// the degradation/restore sweeps, and an Overloaded level sheds new
// Session.Start calls.  Returns the detector for inspection.
func (e *Engine) EnableOverloadControl(p sched.OverloadPolicy) *sched.OverloadDetector {
	det := sched.NewOverloadDetector(p)
	io := e.db.mediaSt.IOStats()
	e.mu.Lock()
	e.detector = det
	e.lastIO = io
	e.mu.Unlock()
	e.db.metrics().pressureLevel.Set(int64(sched.PressureNormal))
	return det
}

// admitCheck is the shed gate Session.Start passes through: while the
// detector reads Overloaded, new admissions are rejected with an
// *OverloadError carrying a virtual-time retry hint.  The level check,
// the shed count and the retry-hint clock read form one critical
// section: a concurrent EnableOverloadControl (detector swap) or level
// transition can no longer interleave between them, so a counted shed
// always reflects the detector that was actually consulted and the
// hint is computed from that same detector's policy.
func (e *Engine) admitCheck() error {
	e.mu.Lock()
	det := e.detector
	if det == nil || det.Level() != sched.PressureOverloaded {
		e.mu.Unlock()
		return nil
	}
	e.shedRejected++
	retry := e.db.clock.Now() + det.Policy().RetryAfter
	e.mu.Unlock()
	e.db.metrics().shedRejected.Add(1)
	return &OverloadError{RetryAfter: retry}
}

// admit enters a begun run into the run set and wakes (or starts) the
// loop.  Called by Session.StartAt with the graph already started and
// the playback handle registered on the session.  The pprof label
// context is built here, once per admission, so the step path never
// constructs label sets per tick.
func (e *Engine) admit(s *Session, run engineRun, p *Playback) {
	labels := pprof.Labels("avdb_session", s.ID(), "avdb_graph", run.Graph().Name())
	ctx := pprof.WithLabels(context.Background(), labels)
	m := e.db.metrics()
	e.mu.Lock()
	due := run.NextDue()
	id := e.set.Admit(due)
	en := &engineEntry{
		id:       id,
		sess:     s,
		session:  s.ID(),
		graph:    run.Graph().Name(),
		run:      run,
		playback: p,
		labelCtx: ctx,
		rate:     run.Rate(),
		due:      due,
	}
	e.entries[id] = en
	e.admitted = append(e.admitted, id)
	// Published inside the critical section that changed the count: an
	// interleaved admit/retire pair can no longer leave the gauge at a
	// stale value (the last publish is the last count change).
	m.sessionsActive.Set(int64(len(e.entries)))
	if !e.running {
		e.running = true
		go e.loop()
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Pause holds the engine between steps: admitted runs stay in the set
// but no tick executes until Resume.  Pause waits for an in-flight step
// to finish, so after it returns no graph is mid-tick.  Tests use the
// pair to admit several sessions and release them into the same first
// step deterministically.
func (e *Engine) Pause() {
	e.mu.Lock()
	e.paused = true
	for e.stepping {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// Resume releases a paused engine.
func (e *Engine) Resume() {
	e.mu.Lock()
	e.paused = false
	e.cond.Broadcast()
	e.mu.Unlock()
}

// loop is the engine goroutine: one step per iteration, exiting when
// the run set drains.
func (e *Engine) loop() {
	for e.stepOnce() {
	}
}

// stepOnce executes one engine step and returns false when the run set
// has drained (the loop exits; a later admit restarts it).  It blocks
// while the engine is paused.  Ticks execute outside the engine lock so
// event handlers running on this goroutine may call back into the
// database (start another session, renegotiate quality) without
// deadlocking.
func (e *Engine) stepOnce() bool {
	e.mu.Lock()
	for e.paused {
		e.cond.Wait()
	}
	if e.set.Len() == 0 {
		e.running = false
		e.cond.Broadcast()
		e.mu.Unlock()
		return false
	}
	due, ids, _ := e.set.DueBatch()
	step := e.steps
	e.steps++
	// The DueBatch buffer is owned by the run set and only valid until
	// its next call; resolve ids to entries into the engine's own
	// reusable batch buffer before dropping the lock.
	e.stepBatch = e.stepBatch[:0]
	for _, id := range ids {
		e.stepBatch = append(e.stepBatch, e.entries[id])
	}
	batch := e.stepBatch
	det := e.detector
	e.stepping = true
	e.mu.Unlock()

	// Lag is how far the committed clock trails the step's due time; it
	// goes positive when a finishing run's drain pushed the clock past
	// other runs' schedules.
	m := e.db.metrics()
	lag := e.db.clock.Now() - due
	if lag < 0 {
		lag = 0
	}
	m.tickLag.Observe(int64(lag))

	// Phase 1 — tick every due run, all tagged with this step's service
	// round so the store batches their chunk requests into the same
	// per-disk SCAN-EDF rounds.
	e.tickBatch(step)

	// Merge — walk the batch in admission order: sample each session's
	// stall episodes (they change only during its own tick, so sampling
	// here sums to what sampling after each tick would) and collect
	// finished runs.
	e.retiredBuf = e.retiredBuf[:0]
	var stallDelta int64
	for _, en := range batch {
		if det != nil {
			eps := en.sess.stallEpisodes()
			stallDelta += eps - en.lastStalls
			en.lastStalls = eps
		}
		if en.tickDone || en.run.Err() != nil {
			e.retiredBuf = append(e.retiredBuf, en)
		}
	}

	// Phase 2 — one clock commit for the whole step: the minimum
	// commit horizon across runs that ticked cleanly.  Runs admitted
	// but not yet ticked contribute their start time, which the clock
	// already covers, so they never drag it backwards — AdvanceTo is
	// monotone.
	horizon := avtime.WorldTime(-1)
	e.mu.Lock()
	for _, en := range e.entries {
		if en.run.Err() != nil {
			continue
		}
		if h := en.run.CommitHorizon(); horizon < 0 || h < horizon {
			horizon = h
		}
	}
	for _, en := range batch {
		// Refresh the introspection snapshot under the lock: SessionsAppend
		// reads these fields instead of calling into the run, which
		// this goroutine mutates outside the lock.
		en.ticks = en.run.Ticks()
		en.due = en.run.NextDue()
		if en.run.Err() == nil && !en.run.Done() {
			e.set.Reschedule(en.id, en.due)
		}
	}
	e.mu.Unlock()
	if horizon >= 0 {
		e.db.clock.AdvanceTo(horizon)
	}
	m.steps.Add(1)

	// Phase 3 — retire finished runs: drain their gates, close spans,
	// stop nodes, publish the retirement.
	for _, en := range e.retiredBuf {
		stats, err := en.run.Finish()
		e.mu.Lock()
		e.set.Remove(en.id)
		delete(e.entries, en.id)
		e.removeAdmittedLocked(en.id)
		e.finished++
		// Under the lock for the same reason admit publishes under it:
		// the gauge sequence must match the count sequence.
		m.sessionsActive.Set(int64(len(e.entries)))
		e.mu.Unlock()
		m.runsFinished.Add(1)
		en.stats, en.err = stats, err
	}

	// Phase 4 — overload control: feed the detector this step's load
	// deltas and, on window boundaries, run the degradation or
	// restore sweep.  Runs outside the engine lock so the sweep may
	// take session locks (the lock order everywhere is session, then
	// engine).
	if det != nil {
		e.overloadStep(det, stallDelta)
	}

	// Phase 5 — close the step's storage round, after every read and
	// every stream close of the step: the SCAN-EDF batches are serviced
	// and the pool's staged ops commit.
	e.db.mediaSt.CloseRound(step)

	// Last: completing a playback releases its waiters, and a client
	// that snapshots right after Wait must find everything this step
	// publishes already there.
	for _, en := range e.retiredBuf {
		en.playback.complete(en.stats, en.err)
	}

	e.mu.Lock()
	e.stepping = false
	e.cond.Broadcast()
	e.mu.Unlock()
	return true
}

// overloadStep samples the per-step load deltas, feeds the detector,
// publishes transitions, and runs the window sweep.
func (e *Engine) overloadStep(det *sched.OverloadDetector, stallDelta int64) {
	io := e.db.mediaSt.IOStats()
	e.mu.Lock()
	served := (io.Scheduled + io.Demand) - (e.lastIO.Scheduled + e.lastIO.Demand)
	missed := io.DeadlineMisses - e.lastIO.DeadlineMisses
	overruns := io.RoundsOverrun - e.lastIO.RoundsOverrun
	e.lastIO = io
	e.mu.Unlock()

	level, evaluated, changed := det.ObserveStep(served, missed, overruns, stallDelta)
	if changed {
		m := e.db.metrics()
		m.pressureLevel.Set(int64(level))
		m.pressureTransitions.Add(1)
		if level == sched.PressureOverloaded {
			m.pressureOverload.Add(1)
		}
	}
	if !evaluated {
		return
	}
	now := e.db.clock.Now()
	e.mu.Lock()
	settling := e.sweptWindow > 0 && det.Windows() <= e.sweptWindow+1
	e.mu.Unlock()
	switch {
	case level >= sched.PressurePressured && det.WindowDirty():
		// Sweep new victims only when the window that just closed was
		// itself dirty: while an elevated level decays through clean
		// windows, the already-shed load is sufficient.  And give each
		// sweep one full window to take effect before piling on — the
		// window straddling a sweep still carries pre-sweep misses, and
		// acting on it would punish higher classes for load the last
		// victims already gave up.
		if settling {
			return
		}
		if e.degradeSweep(level, now) > 0 {
			e.mu.Lock()
			e.sweptWindow = det.Windows()
			e.mu.Unlock()
		}
	case level == sched.PressureNormal:
		e.restoreSweep(now)
	}
}

// degradeCandidates lists sessions with an armed, unfired degradation
// path, lowest priority first, admission order within a class.  Session
// locks are taken only after the engine lock is dropped.  The session
// and candidate buffers are engine scratch reused sweep to sweep; only
// the loop goroutine calls this.
func (e *Engine) degradeCandidates() []*Session {
	e.mu.Lock()
	sessions := e.sessScratch[:0]
	for _, id := range e.admitted {
		if en := e.entries[id]; en.sess != nil {
			sessions = append(sessions, en.sess)
		}
	}
	e.sessScratch = sessions
	e.mu.Unlock()
	cands := e.candScratch[:0]
	for _, s := range sessions {
		if s.CanDegrade() {
			cands = append(cands, s)
		}
	}
	// Stable insertion sort by priority (shift only while strictly
	// lower), preserving admission order within a class without a
	// sort.SliceStable closure allocation.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].Priority() < cands[j-1].Priority(); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	e.candScratch = cands
	return cands
}

// degradeSweep sheds load by degrading victims: one session per window
// under Pressured, the whole lowest-priority class under Overloaded.
// Higher-priority sessions are never degraded while a lower class
// still has headroom to give.  Returns how many victims it degraded.
func (e *Engine) degradeSweep(level sched.PressureLevel, now avtime.WorldTime) int {
	cands := e.degradeCandidates()
	if len(cands) == 0 {
		return 0
	}
	n := 1
	if level == sched.PressureOverloaded {
		// The whole lowest class present goes at once: overload means the
		// schedule is infeasible, and one victim per window is too slow.
		lowest := cands[0].Priority()
		for n < len(cands) && cands[n].Priority() == lowest {
			n++
		}
	}
	victims := 0
	for _, s := range cands[:n] {
		if err := s.degradeNow(now); err != nil {
			continue
		}
		victims++
		e.mu.Lock()
		e.degradedOrder = append(e.degradedOrder, s)
		e.shedDegraded++
		e.mu.Unlock()
		e.db.metrics().shedDegraded.Add(1)
	}
	return victims
}

// restoreSweep reverses at most one degradation per clear window, most
// recently degraded first — the mirror image of the degrade order, so
// the longest-suffering (lowest-priority, earliest-victim) session is
// restored last, when the most headroom has proven stable.
func (e *Engine) restoreSweep(now avtime.WorldTime) {
	for {
		e.mu.Lock()
		n := len(e.degradedOrder)
		var s *Session
		if n > 0 {
			s = e.degradedOrder[n-1]
		}
		e.mu.Unlock()
		if s == nil {
			return
		}
		if s.Closed() || !s.Degraded() {
			// The victim went away (closed, or restored by other means);
			// drop it and consider the next.
			e.mu.Lock()
			e.degradedOrder = e.degradedOrder[:len(e.degradedOrder)-1]
			e.mu.Unlock()
			continue
		}
		if err := s.restoreNow(now); err != nil {
			// Headroom is not back (Grow lost the race) or the path is
			// wedged; leave the victim queued and retry next window.
			return
		}
		e.mu.Lock()
		e.degradedOrder = e.degradedOrder[:len(e.degradedOrder)-1]
		e.shedRestored++
		e.mu.Unlock()
		e.db.metrics().shedRestored.Add(1)
		return
	}
}

// EngineSession describes one admitted run for introspection (the
// avdbsh `sessions` command).
type EngineSession struct {
	Session  string           // owning session id
	Graph    string           // graph name
	Rate     avtime.Rate      // tick rate
	Ticks    int              // ticks executed so far
	Due      avtime.WorldTime // when the next tick is due
	State    string           // "admitted" until the first tick, then "running"
	Priority sched.Priority   // service class for overload sweeps
	Degraded bool             // running its fallback quality

	PoolHits   int64 // buffer-pool hits across the session's open streams
	PoolMisses int64 // buffer-pool misses across the session's open streams

	sess *Session // carried between the two SessionsAppend passes, then cleared
}

// SessionsAppend appends up to top active entries (0 = all), in
// admission order, to buf and returns the extended slice — the
// avdbsh-facing listing that stays usable at 10k sessions: the
// admission-order id list is maintained incrementally (appended at
// admit, spliced at retire), so no per-call sort happens, the cap
// bounds both the copy and the per-session lock hops, and a retained
// buf makes repeated polls allocation-free once warm.
//
// All run-derived fields come from the loop-maintained snapshot read
// under the engine lock — never from the GraphRun itself, which the
// loop may be mid-Tick on.
func (e *Engine) SessionsAppend(buf []EngineSession, top int) []EngineSession {
	start := len(buf)
	e.mu.Lock()
	n := len(e.admitted)
	if top > 0 && top < n {
		n = top
	}
	for _, id := range e.admitted[:n] {
		en := e.entries[id]
		state := "running"
		if en.ticks == 0 {
			state = "admitted"
		}
		buf = append(buf, EngineSession{
			Session: en.session,
			Graph:   en.graph,
			Rate:    en.rate,
			Ticks:   en.ticks,
			Due:     en.due,
			State:   state,
			sess:    en.sess,
		})
	}
	e.mu.Unlock()
	// Session locks are taken after the engine lock is dropped; the
	// lock order everywhere is session, then engine.
	for i := start; i < len(buf); i++ {
		if s := buf[i].sess; s != nil {
			buf[i].Priority = s.Priority()
			buf[i].Degraded = s.Degraded()
			cs := s.CacheStats()
			buf[i].PoolHits, buf[i].PoolMisses = cs.Hits, cs.Misses
			buf[i].sess = nil
		}
	}
	return buf
}

// removeAdmittedLocked splices a retired id out of the admission-order
// list; the caller holds the engine lock.  Ids are monotonic so the
// list is sorted and binary search finds the victim.
func (e *Engine) removeAdmittedLocked(id sched.RunID) {
	lo, hi := 0, len(e.admitted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.admitted[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.admitted) && e.admitted[lo] == id {
		copy(e.admitted[lo:], e.admitted[lo+1:])
		e.admitted = e.admitted[:len(e.admitted)-1]
	}
}

// EngineStats summarizes the engine's lifetime counters.
type EngineStats struct {
	Active   int   // runs currently admitted
	Steps    int64 // engine steps executed
	Finished int64 // runs retired
	Paused   bool

	// Overload control (zero while disabled).
	OverloadOn  bool
	Pressure    sched.PressureLevel
	Transitions int64 // pressure level changes
	Rejected    int64 // Start calls shed with ErrOverloaded
	Degraded    int64 // sweep degradations performed
	Restored    int64 // sweep restores performed
	DegradedNow int   // victims currently awaiting restore
}

// Stats returns the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineStats{
		Active:   len(e.entries),
		Steps:    e.steps,
		Finished: e.finished,
		Paused:   e.paused,
	}
	if e.detector != nil {
		st.OverloadOn = true
		st.Pressure = e.detector.Level()
		st.Transitions = e.detector.Transitions()
		st.Rejected = e.shedRejected
		st.Degraded = e.shedDegraded
		st.Restored = e.shedRestored
		st.DegradedNow = len(e.degradedOrder)
	}
	return st
}
