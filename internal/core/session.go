package core

import (
	"errors"
	"fmt"
	"sync"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// Session is one client's connection to the database: the scope in which
// activities are created, resources allocated, values bound and streams
// started.  Its shape follows §4.3's pseudo-code line by line: create
// activities (allocating resources — "if insufficient resources were
// available this statement would fail"), connect ports (allocating
// network bandwidth), query, bind, start.
type Session struct {
	db     *Database
	id     string
	client string
	link   *netsim.Link
	graph  *activity.Graph

	mu       sync.Mutex
	grants   []*sched.Grant
	conns    []*netsim.Conn
	streams  []*storage.Stream
	devices  []string
	playback *Playback
	closed   bool
	span     obs.SpanID             // session span when observability is on
	priority sched.Priority         // service class for overload sweeps; zero is PriorityNormal
	deg      *degradeState          // armed degradation path, nil if none
	stalls   []*sched.StallDetector // detectors feeding the engine's pressure signal
}

// SetPriority assigns the session's service class.  Under engine
// overload control, lower-priority sessions are degraded first and
// restored last, and priority never changes the schedule while the
// system is healthy.
func (s *Session) SetPriority(p sched.Priority) {
	s.mu.Lock()
	s.priority = p
	s.mu.Unlock()
}

// Priority reports the session's service class.
func (s *Session) Priority() sched.Priority {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.priority
}

// WatchStalls registers stall detectors whose episodes feed the
// engine's pressure detector while this session is scheduled.  A
// window's EnableStallDetection detector is the usual candidate.
func (s *Session) WatchStalls(ds ...*sched.StallDetector) {
	s.mu.Lock()
	s.stalls = append(s.stalls, ds...)
	s.mu.Unlock()
}

// stallEpisodes sums episodes across the watched detectors.
func (s *Session) stallEpisodes() int64 {
	s.mu.Lock()
	ds := s.stalls
	s.mu.Unlock()
	var n int64
	for _, d := range ds {
		n += int64(d.Episodes())
	}
	return n
}

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// CacheStats aggregates the buffer-pool behavior of the session's open
// streams: hits, shared hits (chunks a neighbor session staged), and
// misses.
func (s *Session) CacheStats() storage.CacheStats {
	s.mu.Lock()
	streams := make([]*storage.Stream, len(s.streams))
	copy(streams, s.streams)
	s.mu.Unlock()
	var agg storage.CacheStats
	for _, stream := range streams {
		cs := stream.CacheStats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Shared += cs.Shared
		agg.Prefetched += cs.Prefetched
		agg.Evicted += cs.Evicted
	}
	return agg
}

// Connect opens a session for a client reachable over the given network
// link.
func (db *Database) Connect(client, linkID string) (*Session, error) {
	link, ok := db.network.Link(linkID)
	if !ok {
		return nil, fmt.Errorf("core: no network link %q", linkID)
	}
	db.mu.Lock()
	db.nextSession++
	id := fmt.Sprintf("%s/session-%d", db.name, db.nextSession)
	db.mu.Unlock()
	s := &Session{
		db: db, id: id, client: client, link: link,
		graph: activity.NewGraph(id),
	}
	if sink := db.sink(); sink != nil {
		s.span = sink.BeginSpan(obs.NoSpan, obs.KindSession, id, db.clock.Now())
	}
	db.metrics().sessionOpened.Add(1)
	return s, nil
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Install adds an activity to the session.  Database-located activities
// reserve res from the database's admission budget first — creating an
// activity IS allocating resources (§4.3) — and installation fails when
// the budget cannot cover it.
func (s *Session) Install(act activity.Activity, res sched.Resources) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	var g *sched.Grant
	if act.Location() == activity.AtDatabase && !res.IsZero() {
		var err error
		g, err = s.db.admission.Reserve(res)
		if err != nil {
			return err
		}
	}
	if err := s.graph.Add(act); err != nil {
		// A reservation for an activity that never joined the graph must
		// not outlive the failure.
		if g != nil {
			g.Release()
		}
		return err
	}
	if g != nil {
		s.grants = append(s.grants, g)
	}
	return nil
}

// AcquireDevice grants the session exclusive use of a platform device
// (an effects processor, a DAC, the jukebox).  The device is released at
// session close.
func (s *Session) AcquireDevice(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	if err := s.db.devices.Acquire(id, s.id); err != nil {
		return err
	}
	s.devices = append(s.devices, id)
	return nil
}

// Connect wires two activity ports.  A connection crossing the
// database/application boundary reserves rate on the session's network
// link and fails when the link cannot sustain it.
func (s *Session) Connect(from activity.Activity, fromPort string, to activity.Activity, toPort string, rate media.DataRate) (*activity.Connection, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	if from.Location() == to.Location() {
		return s.graph.Connect(from, fromPort, to, toPort)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("core: a cross-location connection needs a positive rate")
	}
	nc, err := s.link.Connect(rate)
	if err != nil {
		return nil, err
	}
	conn, err := s.graph.ConnectVia(from, fromPort, to, toPort, nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	s.conns = append(s.conns, nc)
	return conn, nil
}

// streamAttacher is satisfied by reader activities that can pay storage
// read time per chunk.
type streamAttacher interface {
	AttachStream(*storage.Stream)
}

// BindValue binds the media value of oid.attr to an activity port —
// §4.3's "bind myNews.videoTrack to dbSource".  The paper's location
// rule is enforced: "activities bound to database values must be located
// with the database."  When the value has a placement, a storage stream
// at the given rate is opened and attached so delivery pays device time.
func (s *Session) BindValue(oid schema.OID, attr string, act activity.Activity, port string, rate media.DataRate) error {
	if act.Location() != activity.AtDatabase {
		return fmt.Errorf("core: activities bound to database values must be located with the database; %s is at the application", act.Name())
	}
	d, err := s.db.GetAttr(oid, attr)
	if err != nil {
		return err
	}
	if d.Kind() != schema.KindMedia {
		return fmt.Errorf("core: %v.%s is %v, not media", oid, attr, d.Kind())
	}
	if err := act.Bind(d.MediaVal(), port); err != nil {
		return err
	}
	return s.attachPlacement(oid, attr, "", act, rate)
}

// BindTrack binds one track of a tcomp attribute to an activity port —
// the component bindings behind "bind myNews.clip to dbSource".
func (s *Session) BindTrack(oid schema.OID, attr, track string, act activity.Activity, port string, rate media.DataRate) error {
	if act.Location() != activity.AtDatabase {
		return fmt.Errorf("core: activities bound to database values must be located with the database; %s is at the application", act.Name())
	}
	d, err := s.db.GetAttr(oid, attr)
	if err != nil {
		return err
	}
	if d.Kind() != schema.KindTComp {
		return fmt.Errorf("core: %v.%s is %v, not a tcomp", oid, attr, d.Kind())
	}
	tr, ok := d.TCompVal().Track(track)
	if !ok {
		return fmt.Errorf("core: %v.%s has no track %q", oid, attr, track)
	}
	if err := act.Bind(tr.Value, port); err != nil {
		return err
	}
	return s.attachPlacement(oid, attr, track, act, rate)
}

// BindClip binds every track of a tcomp attribute to the same-named
// component of a composite activity — the paper's one-statement
// "bind myNews.clip to dbSource".
func (s *Session) BindClip(oid schema.OID, attr string, comp *activity.Composite, rate media.DataRate) error {
	d, err := s.db.GetAttr(oid, attr)
	if err != nil {
		return err
	}
	if d.Kind() != schema.KindTComp {
		return fmt.Errorf("core: %v.%s is %v, not a tcomp", oid, attr, d.Kind())
	}
	for _, child := range comp.Children() {
		if _, ok := d.TCompVal().Track(child.Name()); !ok {
			continue // components without a matching track keep their binding
		}
		if err := s.BindTrack(oid, attr, child.Name(), child, "out", rate); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) attachPlacement(oid schema.OID, attr, track string, act activity.Activity, rate media.DataRate) error {
	seg, ok := s.db.Placement(oid, attr, track)
	if !ok || rate <= 0 {
		return nil
	}
	at, ok := act.(streamAttacher)
	if !ok {
		return nil
	}
	var stream *storage.Stream
	var err error
	if s.db.mediaSt.Tiering().Enabled() {
		// Tiered open: the access bumps the value's popularity and may
		// promote or replicate it; any copy cost lands on this stream's
		// startup, charged to its first read.
		stream, _, err = s.db.mediaSt.OpenStreamTiered(seg.ID(), rate, s.db.clock.Now())
	} else {
		stream, _, err = s.db.mediaSt.OpenStream(seg.ID(), rate)
	}
	if err != nil {
		return err
	}
	at.AttachStream(stream)
	s.mu.Lock()
	s.streams = append(s.streams, stream)
	s.mu.Unlock()
	return nil
}

// Playback is the handle of one started stream: the asynchronous side of
// the client interface.  "The client does not want to block during such
// transfers.  Rather it needs to initiate the transfer and then proceed
// to other tasks, perhaps being informed when the transfer is complete."
type Playback struct {
	graph *activity.Graph
	done  chan struct{}

	mu      sync.Mutex
	stats   *activity.RunStats
	err     error
	stopErr error // first failed Stop, kept for Session.Close reporting
}

// Start launches the session's graph.  It returns immediately; the
// stream runs against the database clock and completion is observed via
// the returned Playback.
func (s *Session) Start() (*Playback, error) {
	return s.StartAt(avtime.RateVideo30, 0)
}

// StartAt launches the graph at a specific tick rate; maxTicks <= 0 runs
// until the sources finish.
func (s *Session) StartAt(rate avtime.Rate, maxTicks int) (*Playback, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	if s.playback != nil {
		select {
		case <-s.playback.done:
			// previous playback finished; allow a new one
		default:
			return nil, fmt.Errorf("core: session %s already has a running stream", s.id)
		}
	}
	// Load shedding: an overloaded engine rejects new admissions with a
	// retry hint rather than thrashing the sessions already scheduled.
	if err := s.db.runEngine.admitCheck(); err != nil {
		return nil, err
	}
	if err := s.graph.Start(); err != nil {
		return nil, err
	}
	cfg := activity.RunConfig{
		Clock: s.db.clock, Rate: rate, MaxTicks: maxTicks,
		Obs: s.db.sink(), ObsParent: s.span,
	}
	// The playback no longer owns a private run loop: the graph is split
	// into a resumable GraphRun and admitted to the database engine,
	// which interleaves every active session's ticks on the one shared
	// clock.  The Playback handle keeps the asynchronous client
	// interface of §3.3 unchanged — Done/Wait/Stop behave as before.
	run, err := s.graph.Begin(cfg)
	if err != nil {
		s.graph.Stop()
		return nil, err
	}
	p := &Playback{graph: s.graph, done: make(chan struct{})}
	s.playback = p
	s.db.runEngine.admit(s, run, p)
	return p, nil
}

// Done returns a channel closed when the stream completes — the
// asynchronous notification of §3.3.
func (p *Playback) Done() <-chan struct{} { return p.done }

// Wait blocks until completion and returns the run statistics.
func (p *Playback) Wait() (*activity.RunStats, error) {
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats, p.err
}

// complete records the run's outcome and unblocks waiters; called by
// the engine when it retires the run.
func (p *Playback) complete(stats *activity.RunStats, err error) {
	p.mu.Lock()
	p.stats, p.err = stats, err
	p.mu.Unlock()
	close(p.done)
}

// Stop halts the stream and reports teardown failures from the graph's
// nodes; Wait still returns the stream's statistics.  Stopping a stream
// that already finished is a no-op returning nil.
func (p *Playback) Stop() error {
	err := p.graph.Stop()
	if err != nil {
		p.mu.Lock()
		if p.stopErr == nil {
			p.stopErr = err
		}
		p.mu.Unlock()
	}
	return err
}

// Close stops any running stream and releases every resource the session
// holds: admission grants, network connections, storage streams and
// exclusive devices.  It reports the teardown errors a stopped stream's
// nodes raised, so a failed cleanup is visible to clients that never
// call Playback.Wait.  Close never fails to release resources; the
// error is purely a report.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	playback := s.playback
	grants := s.grants
	conns := s.conns
	streams := s.streams
	s.grants, s.conns, s.streams, s.devices = nil, nil, nil, nil
	s.mu.Unlock()

	var closeErr error
	if playback != nil {
		playback.Stop()
		<-playback.done
		// stopErr captures the first failed Stop (ours above or an
		// earlier client call); stats.StopErr carries the run's own
		// teardown failures from the engine's retirement pass.
		playback.mu.Lock()
		closeErr = playback.stopErr
		if playback.stats != nil && playback.stats.StopErr != nil {
			closeErr = errors.Join(closeErr, playback.stats.StopErr)
		}
		playback.mu.Unlock()
	} else if err := s.graph.Stop(); err != nil {
		closeErr = err
	}
	for _, g := range grants {
		g.Release()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, st := range streams {
		st.Close()
	}
	s.db.devices.ReleaseAll(s.id)
	if sink := s.db.sink(); sink != nil {
		sink.EndSpan(s.span, s.db.clock.Now())
	}
	s.db.metrics().sessionClosed.Add(1)
	return closeErr
}
