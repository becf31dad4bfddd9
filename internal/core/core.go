// Package core is the AV database system itself — the paper's primary
// contribution assembled over the substrate packages.  A Database is "a
// software/hardware entity managing a collection of AV values and AV
// activities" (§3.1): it holds the class catalog and object store,
// answers queries with references, places media values on platform
// devices, grants resources through admission control, arbitrates
// exclusive hardware, keeps scalar state recoverable through a redo log,
// and gives clients the asynchronous, stream-based session interface of §3.3.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/query"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
	"avdb/internal/txn"
)

// Sentinel errors for the core layer.  Lower layers wrap their own
// (device.ErrCapacity, netsim.ErrBandwidth, storage.ErrNoPlacement,
// …); everything composes with errors.Is through %w chains.
var (
	// ErrNoObject is wrapped by operations on unknown object references.
	ErrNoObject = fmt.Errorf("core: no such object")
	// ErrNoClass is wrapped by operations naming an undefined class.
	ErrNoClass = fmt.Errorf("core: no such class")
	// ErrSessionClosed is wrapped by operations on a closed session.
	ErrSessionClosed = fmt.Errorf("core: session closed")
	// ErrOverloaded is wrapped by Session.Start while the engine's
	// overload detector reads Overloaded: admitting another stream into
	// a thrashing schedule would make every session miss.  The concrete
	// error is an *OverloadError carrying a virtual-time retry hint.
	ErrOverloaded = fmt.Errorf("core: engine overloaded")
)

// OverloadError is the shed response to Session.Start under overload.
// RetryAfter is the virtual time at which the engine suggests retrying —
// the paper's "if insufficient resources were available this statement
// would fail" (§3.3), failing fast with a schedule hint instead of
// thrashing the sessions already admitted.
type OverloadError struct {
	RetryAfter avtime.WorldTime
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("core: engine overloaded, retry at %v", e.RetryAfter)
}

// Unwrap ties the concrete error to the ErrOverloaded sentinel.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Config parameterizes a database instance.
type Config struct {
	Name string
	// Resources is the admission-control budget for database-side
	// activities and streams.
	Resources sched.Resources
	// Deprecated: ignored.  Workers and EngineWorkers once set host
	// parallelism; the engine now ticks every run on its one loop
	// goroutine.  They stay only because the frozen bench/ module sets
	// them.
	Workers, EngineWorkers int
	// Cache configures per-stream chunk caching and lookahead
	// prefetching in the media store; the zero value disables it.
	Cache storage.CachePolicy
	// Striping configures striped placement and round-based SCAN-EDF
	// disk scheduling in the media store: Width > 1 stripes automatic
	// placements over that many disks, Seeks prices every demand chunk
	// read with a positioning cost, Rounds batches co-admitted streams'
	// chunk requests into per-disk service rounds.  The zero value
	// changes nothing.
	Striping storage.StripePolicy
	// Tiering configures the storage hierarchy: popularity-driven
	// promotion of jukebox values to the disk tier, demotion sweeps, and
	// hot-clip replication across stripe groups.  The zero value
	// disables it.
	Tiering storage.TierPolicy
}

// Database is one AV database instance.
type Database struct {
	name string

	schema    *schema.Schema
	objects   *schema.Store
	engine    *query.Engine
	mediaSt   *storage.Store
	devices   *device.Manager
	network   *netsim.Network
	versions  *txn.VersionStore
	admission *sched.Admission
	log       *txn.Log
	clock     *sched.VirtualClock
	links     *linkStore
	runEngine *Engine // the one run loop advancing the shared clock

	// classLocks holds one lock per class, made by DefineClass: a
	// writer of the class's objects holds it exclusively, a Select of
	// the class shared.  classMu guards the map only.
	classMu    sync.RWMutex
	classLocks map[string]*sync.RWMutex

	// allocMu makes an OID's allocation and its NewObject's commit one
	// step (allocate), so the images of nextOIDKey rise in log order and
	// the last one recovery sees is above every OID handed out.
	allocMu sync.Mutex

	mu          sync.Mutex
	nextSession int
	segments    map[string]storage.SegID // "oid/attr[/track]" -> segment
	obsC        *obs.Collector

	// obsM holds the collector's handles on the database's own
	// metrics; all nil until EnableObservability.  Read without db.mu.
	obsM atomic.Pointer[dbMetrics]
}

// dbMetrics holds the handles on the metrics the database records
// itself: sessions, degradation and the engine.
type dbMetrics struct {
	sessionOpened, sessionClosed, degraded, restored *obs.Counter

	steps, runsFinished                      *obs.Counter
	shedRejected, shedDegraded, shedRestored *obs.Counter
	pressureTransitions, pressureOverload    *obs.Counter
	sessionsActive, pressureLevel            *obs.Gauge
	tickLag                                  *obs.Histogram
}

func newDBMetrics(s obs.Sink) *dbMetrics {
	return &dbMetrics{
		sessionOpened:       s.Counter("session.opened"),
		sessionClosed:       s.Counter("session.closed"),
		degraded:            s.Counter("stream.degraded"),
		restored:            s.Counter("stream.restored"),
		steps:               s.Counter("engine.steps"),
		runsFinished:        s.Counter("engine.runs.finished"),
		shedRejected:        s.Counter("engine.shed.rejected"),
		shedDegraded:        s.Counter("engine.shed.degraded"),
		shedRestored:        s.Counter("engine.shed.restored"),
		pressureTransitions: s.Counter("engine.pressure.transitions"),
		pressureOverload:    s.Counter("engine.pressure.overload"),
		sessionsActive:      s.Gauge("engine.sessions.active"),
		pressureLevel:       s.Gauge("engine.pressure.level"),
		tickLag:             s.Histogram("engine.tick.lag"),
	}
}

// Open creates a database.  Devices and network links are registered
// afterwards through Devices() and Network().  It fails on an invalid
// configuration, such as a negative resource budget.
func Open(cfg Config) (*Database, error) {
	if cfg.Name == "" {
		cfg.Name = "avdb"
	}
	admission, err := sched.NewAdmission(cfg.Resources)
	if err != nil {
		return nil, fmt.Errorf("core: opening %q: %w", cfg.Name, err)
	}
	devices := device.NewManager()
	db := &Database{
		name:      cfg.Name,
		schema:    schema.NewSchema(),
		objects:   schema.NewStore(),
		devices:   devices,
		mediaSt:   storage.NewStore(devices),
		network:   netsim.NewNetwork(),
		versions:  txn.NewVersionStore(),
		admission: admission,
		log:       new(txn.Log),
		clock:     sched.NewVirtualClock(0),
		links:     newLinkStore(),
		segments:  make(map[string]storage.SegID),

		classLocks: make(map[string]*sync.RWMutex),
	}
	db.mediaSt.SetCachePolicy(cfg.Cache)
	db.mediaSt.SetStriping(cfg.Striping)
	db.mediaSt.SetTierPolicy(cfg.Tiering)
	db.engine = query.NewEngine(db.schema, db.objects)
	db.runEngine = newEngine(db)
	db.obsM.Store(newDBMetrics(obs.NopSink{}))
	return db, nil
}

// Engine returns the database's multi-session stream engine: the single
// run loop every started playback is scheduled on.
func (db *Database) Engine() *Engine { return db.runEngine }

// MediaIOStats returns the media store's cumulative disk-scheduling
// counters: rounds serviced, seeks charged and saved, deadline misses.
func (db *Database) MediaIOStats() storage.IOStats { return db.mediaSt.IOStats() }

// Name returns the database's name.
func (db *Database) Name() string { return db.name }

// EnableObservability installs a collector across the database's
// instrumentation points — admission control, the media store, the
// device manager, and every network link registered so far — and
// returns it.  Sessions opened afterwards trace their playbacks into
// it.  Calling it again returns the same collector (links registered in
// between are picked up).
func (db *Database) EnableObservability() *obs.Collector {
	db.mu.Lock()
	if db.obsC == nil {
		db.obsC = obs.NewCollector()
		db.obsM.Store(newDBMetrics(db.obsC))
	}
	c := db.obsC
	db.mu.Unlock()
	db.admission.SetSink(c)
	db.mediaSt.SetSink(c)
	db.devices.SetSink(c)
	for _, id := range db.network.Links() {
		if l, ok := db.network.Link(id); ok {
			l.SetSink(c)
		}
	}
	return c
}

// Obs returns the installed collector, or nil when observability was
// never enabled.
func (db *Database) Obs() *obs.Collector {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.obsC
}

// sink returns the collector as a Sink, or a nil interface when
// observability is off (never a non-nil interface holding a nil
// pointer, which instrumentation nil checks would mistake for live).
func (db *Database) sink() obs.Sink {
	if c := db.Obs(); c != nil {
		return c
	}
	return nil
}

// metrics returns the handles on the database's own metrics.
func (db *Database) metrics() *dbMetrics { return db.obsM.Load() }

// Devices returns the platform device manager.
func (db *Database) Devices() *device.Manager { return db.devices }

// Network returns the client network.
func (db *Database) Network() *netsim.Network { return db.network }

// Storage returns the media store.
func (db *Database) Storage() *storage.Store { return db.mediaSt }

// Admission returns the database's resource authority.
func (db *Database) Admission() *sched.Admission { return db.admission }

// Versions returns the media version store.
func (db *Database) Versions() *txn.VersionStore { return db.versions }

// Clock returns the database's presentation clock.
func (db *Database) Clock() *sched.VirtualClock { return db.clock }

// Schema returns the class catalog.
func (db *Database) Schema() *schema.Schema { return db.schema }

// DefineClass registers a class and makes its lock.
func (db *Database) DefineClass(name, super string, attrs []schema.AttrDef) (*schema.Class, error) {
	db.classMu.Lock()
	defer db.classMu.Unlock()
	c, err := db.schema.Define(name, super, attrs)
	if err == nil {
		db.classLocks[name] = new(sync.RWMutex)
	}
	return c, err
}

// classLock returns the lock DefineClass made for the class, or nil for
// a name it never defined.
func (db *Database) classLock(name string) *sync.RWMutex {
	db.classMu.RLock()
	defer db.classMu.RUnlock()
	return db.classLocks[name]
}

// lockObject returns the live object for oid with its class's lock held
// exclusively; the caller unlocks.  It looks the object up again once
// the lock is held, so a writer never changes an object that a
// DeleteObject detached while the writer waited.
func (db *Database) lockObject(oid schema.OID) (*schema.Object, *sync.RWMutex, error) {
	if o, ok := db.objects.Get(oid); ok {
		l := db.classLock(o.Class().Name())
		l.Lock()
		if cur, ok := db.objects.Get(oid); ok && cur == o {
			return o, l, nil
		}
		l.Unlock()
	}
	return nil, nil, fmt.Errorf("%w: %v", ErrNoObject, oid)
}

// CreateIndex builds an attribute index used by the query planner.
func (db *Database) CreateIndex(className, attr string, kind query.IndexKind) error {
	_, err := db.engine.CreateIndex(className, attr, kind)
	return err
}

// NewObject creates an instance of the class and commits it, holding
// the class's lock.
func (db *Database) NewObject(className string) (*schema.Object, error) {
	c, ok := db.schema.Class(className)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoClass, className)
	}
	l := db.classLock(className)
	l.Lock()
	defer l.Unlock()
	return db.allocate(c), nil
}

// allocate creates the object and commits, as one step under allocMu,
// its objmeta/ key and the allocator's new high-water mark.
func (db *Database) allocate(c *schema.Class) *schema.Object {
	db.allocMu.Lock()
	defer db.allocMu.Unlock()
	o := db.objects.NewObject(c)
	var next [8]byte
	binary.BigEndian.PutUint64(next[:], uint64(o.OID())+1)
	db.log.Commit(
		txn.Write{Key: metaKey(o.OID()), Val: []byte(c.Name())},
		txn.Write{Key: nextOIDKey, Val: next[:]},
	)
	return o
}

// SetAttr assigns an attribute and, for a scalar, commits it, holding
// the class's lock across the object, its indexes and the log.
func (db *Database) SetAttr(oid schema.OID, attr string, d schema.Datum) error {
	o, l, err := db.lockObject(oid)
	if err != nil {
		return err
	}
	defer l.Unlock()
	var old *schema.Datum
	if prev, had := o.Get(attr); had {
		old = &prev
	}
	if err := o.Set(attr, d); err != nil {
		return err
	}
	db.engine.OnSet(o, attr, old, d)
	if isScalar(d.Kind()) {
		enc, err := encodeDatum(d)
		if err != nil {
			return err
		}
		db.log.Commit(txn.Write{Key: attrKey(oid, attr), Val: enc})
	}
	return nil
}

// GetAttr reads an attribute.  It takes no class lock: the object
// store's lock, which guards every object's slots, makes the read
// atomic.
func (db *Database) GetAttr(oid schema.OID, attr string) (schema.Datum, error) {
	o, ok := db.objects.Get(oid)
	if !ok {
		return schema.Datum{}, fmt.Errorf("%w: %v", ErrNoObject, oid)
	}
	d, had := o.Get(attr)
	if !had {
		return schema.Datum{}, fmt.Errorf("core: %v has no value for %q", oid, attr)
	}
	return d, nil
}

// DeleteObject removes an object, its index entries, its durable scalar
// state and the database's record of where its media were placed.  The
// device segments themselves are deliberately left allocated — not
// handed to storage.Store.Delete — until delete vs open-stream vs
// checked-in-version semantics are defined (ROADMAP item 10).  It holds
// the class's lock throughout.
func (db *Database) DeleteObject(oid schema.OID) error {
	o, l, err := db.lockObject(oid)
	if err != nil {
		return err
	}
	defer l.Unlock()
	db.engine.OnDelete(o)
	if err := db.objects.Delete(oid); err != nil {
		return err
	}
	ws := []txn.Write{{Key: metaKey(oid)}}
	for _, attr := range o.Fields() {
		if d, had := o.Get(attr); had && isScalar(d.Kind()) {
			ws = append(ws, txn.Write{Key: attrKey(oid, attr)})
		}
	}
	db.log.Commit(ws...)
	prefix := placementKey(oid, "", "") // "<oid>/"
	db.mu.Lock()
	for k := range db.segments {
		if strings.HasPrefix(k, prefix) {
			delete(db.segments, k)
		}
	}
	db.mu.Unlock()
	return nil
}

// Select parses and runs a query, returning references: "queries may
// return references to AV values rather than the values themselves."
// It holds the class's lock shared, so no writer of the class's own
// objects runs beside it.
func (db *Database) Select(src string) ([]schema.OID, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if l := db.classLock(q.ClassName); l != nil {
		l.RLock()
		defer l.RUnlock()
	}
	return db.engine.Run(q)
}

// SelectOne runs a query expected to match exactly one object.
func (db *Database) SelectOne(src string) (schema.OID, error) {
	oids, err := db.Select(src)
	if err != nil {
		return 0, err
	}
	if len(oids) != 1 {
		return 0, fmt.Errorf("core: query matched %d objects, want 1", len(oids))
	}
	return oids[0], nil
}

// Object returns the live object for a reference.
func (db *Database) Object(oid schema.OID) (*schema.Object, bool) {
	return db.objects.Get(oid)
}

// PlaceMedia stores a media attribute's value on a device and remembers
// the placement.  deviceID may be empty to let the store choose a disk
// that can sustain rate.
func (db *Database) PlaceMedia(oid schema.OID, attr string, deviceID string, rate media.DataRate) (*storage.Segment, error) {
	d, err := db.GetAttr(oid, attr)
	if err != nil {
		return nil, err
	}
	if d.Kind() != schema.KindMedia {
		return nil, fmt.Errorf("core: %v.%s is %v, not media", oid, attr, d.Kind())
	}
	var seg *storage.Segment
	if deviceID == "" {
		if w := db.mediaSt.Striping().Width; w > 1 {
			seg, err = db.mediaSt.PlaceStriped(d.MediaVal(), rate, w)
		} else {
			seg, err = db.mediaSt.PlaceAuto(d.MediaVal(), rate)
		}
	} else {
		seg, err = db.mediaSt.Place(d.MediaVal(), deviceID)
	}
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.segments[placementKey(oid, attr, "")] = seg.ID()
	db.mu.Unlock()
	return seg, nil
}

// PlaceMediaStriped stores a media attribute's value striped round-robin
// over width disks (chosen load-aware) and remembers the placement.
// Streams bound to it later reserve a 1/width share of their rate on
// every stripe disk, multiplying the bandwidth one stream can draw.
func (db *Database) PlaceMediaStriped(oid schema.OID, attr string, rate media.DataRate, width int) (*storage.Segment, error) {
	d, err := db.GetAttr(oid, attr)
	if err != nil {
		return nil, err
	}
	if d.Kind() != schema.KindMedia {
		return nil, fmt.Errorf("core: %v.%s is %v, not media", oid, attr, d.Kind())
	}
	seg, err := db.mediaSt.PlaceStriped(d.MediaVal(), rate, width)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.segments[placementKey(oid, attr, "")] = seg.ID()
	db.mu.Unlock()
	return seg, nil
}

// PlaceMediaOnDisc stores a media attribute's value on one disc of a
// videodisc jukebox — the analog bulk tier ("an analog videodisc jukebox
// provides a video storage capacity difficult to achieve using magnetic
// disks", §3.3).
func (db *Database) PlaceMediaOnDisc(oid schema.OID, attr, deviceID string, disc int) (*storage.Segment, error) {
	d, err := db.GetAttr(oid, attr)
	if err != nil {
		return nil, err
	}
	if d.Kind() != schema.KindMedia {
		return nil, fmt.Errorf("core: %v.%s is %v, not media", oid, attr, d.Kind())
	}
	seg, err := db.mediaSt.PlaceOnDisc(d.MediaVal(), deviceID, disc)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.segments[placementKey(oid, attr, "")] = seg.ID()
	db.mu.Unlock()
	return seg, nil
}

// PlaceTrack places one track of a tcomp attribute.
func (db *Database) PlaceTrack(oid schema.OID, attr, track, deviceID string, rate media.DataRate) (*storage.Segment, error) {
	d, err := db.GetAttr(oid, attr)
	if err != nil {
		return nil, err
	}
	if d.Kind() != schema.KindTComp {
		return nil, fmt.Errorf("core: %v.%s is %v, not a tcomp", oid, attr, d.Kind())
	}
	tr, ok := d.TCompVal().Track(track)
	if !ok {
		return nil, fmt.Errorf("core: %v.%s has no track %q", oid, attr, track)
	}
	var seg *storage.Segment
	if deviceID == "" {
		seg, err = db.mediaSt.PlaceAuto(tr.Value, rate)
	} else {
		seg, err = db.mediaSt.Place(tr.Value, deviceID)
	}
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.segments[placementKey(oid, attr, track)] = seg.ID()
	db.mu.Unlock()
	return seg, nil
}

// Placement reports where a media attribute (or track) is stored.
func (db *Database) Placement(oid schema.OID, attr, track string) (*storage.Segment, bool) {
	db.mu.Lock()
	id, ok := db.segments[placementKey(oid, attr, track)]
	db.mu.Unlock()
	if !ok {
		return nil, false
	}
	return db.mediaSt.Get(id)
}

// Crash simulates loss of the database's volatile state: objects and
// index structures vanish; the log and the media segments on devices
// survive.
func (db *Database) Crash() {
	db.objects = schema.NewStore()
	db.engine = query.NewEngine(db.schema, db.objects)
}

// Recover rebuilds the catalog from the keys the log leaves live,
// visited once: objmeta/ keys are the objects (restored in ascending OID
// order, which is creation order), attr/ keys their scalar attributes,
// link/ keys the hypermedia links, and nextOIDKey retires every OID the
// log has named.  Media attributes are re-attached from their surviving
// segments.  Attribute indexes are volatile structures: recreate them
// with CreateIndex after recovery (they rebuild from the recovered
// extent).
func (db *Database) Recover() error {
	live := db.log.Live()
	type liveObject struct {
		oid   schema.OID
		class *schema.Class
	}
	type liveAttr struct {
		oid  schema.OID
		name string
		enc  []byte
	}
	var (
		objs  []liveObject
		attrs = make([]liveAttr, 0, len(live)) // most live keys are attributes
		links = newLinkStore()
		next  schema.OID
	)
	for key, val := range live {
		switch {
		case strings.HasPrefix(key, metaPrefix):
			oid, err := parseOID(key[len(metaPrefix):])
			if err != nil {
				return err
			}
			c, ok := db.schema.Class(string(val))
			if !ok {
				return fmt.Errorf("core: recovery found unknown class %q", val)
			}
			objs = append(objs, liveObject{oid, c})
		case strings.HasPrefix(key, attrPrefix):
			oid, name, err := cutOID(key[len(attrPrefix):])
			if err != nil {
				return err
			}
			attrs = append(attrs, liveAttr{oid, name, val})
		case strings.HasPrefix(key, linkPrefix):
			l, err := parseLinkKey(key)
			if err != nil {
				return err
			}
			links.insert(l)
		case key == nextOIDKey:
			if len(val) != 8 {
				return fmt.Errorf("core: malformed OID allocator value % x", val)
			}
			next = schema.OID(binary.BigEndian.Uint64(val))
		}
	}
	// In ascending OID order each restore lands at its extent's end.
	sort.Slice(objs, func(i, j int) bool { return objs[i].oid < objs[j].oid })
	for _, p := range objs {
		if _, err := db.objects.RestoreObject(p.class, p.oid); err != nil {
			return err
		}
	}
	db.objects.ReserveBelow(next)
	for _, a := range attrs {
		o, ok := db.objects.Get(a.oid)
		if !ok {
			continue
		}
		d, err := decodeDatum(a.enc)
		if err != nil {
			return fmt.Errorf("core: recovering %v.%s: %w", a.oid, a.name, err)
		}
		if err := o.Set(a.name, d); err != nil {
			return fmt.Errorf("core: recovering %v.%s: %w", a.oid, a.name, err)
		}
	}
	db.links = links
	// Re-attach surviving media segments.
	db.mu.Lock()
	placements := make(map[string]storage.SegID, len(db.segments))
	for k, v := range db.segments {
		placements[k] = v
	}
	db.mu.Unlock()
	for key, segID := range placements {
		seg, ok := db.mediaSt.Get(segID)
		if !ok {
			continue
		}
		oid, attr, track, err := parsePlacementKey(key)
		if err != nil {
			return err
		}
		o, ok := db.objects.Get(oid)
		if !ok {
			continue
		}
		if track == "" {
			if err := o.Set(attr, schema.Media(seg.Value())); err != nil {
				return fmt.Errorf("core: re-attaching %v.%s: %w", oid, attr, err)
			}
		}
		// Tracks of tcomp attributes are re-attached by the application
		// rebuilding the composite; scalar state and segments survive.
	}
	return nil
}

func isScalar(k schema.AttrKind) bool {
	switch k {
	case schema.KindString, schema.KindInt, schema.KindFloat, schema.KindBool, schema.KindDate:
		return true
	}
	return false
}

// The durable key space: one objmeta/ key per live object holding its
// class name, one attr/ key per set scalar attribute holding its encoded
// datum, one link/ key per hypermedia link (links.go), and nextOIDKey
// holding, as eight big-endian bytes, the lowest OID never allocated.
const (
	metaPrefix = "objmeta/"
	attrPrefix = "attr/"
	linkPrefix = "link/"
	nextOIDKey = "nextoid"
)

func metaKey(oid schema.OID) string { return metaPrefix + strconv.FormatUint(uint64(oid), 10) }

func attrKey(oid schema.OID, attr string) string {
	return attrPrefix + strconv.FormatUint(uint64(oid), 10) + "/" + attr
}

func placementKey(oid schema.OID, attr, track string) string {
	k := strconv.FormatUint(uint64(oid), 10) + "/" + attr
	if track != "" {
		k += "/" + track
	}
	return k
}

func parsePlacementKey(key string) (schema.OID, string, string, error) {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 2 {
		return 0, "", "", fmt.Errorf("core: malformed placement key %q", key)
	}
	oid, err := parseOID(parts[0])
	if err != nil {
		return 0, "", "", err
	}
	track := ""
	if len(parts) == 3 {
		track = parts[2]
	}
	return oid, parts[1], track, nil
}

// cutOID splits "<oid>/<rest>", the shape of every durable key past its
// prefix.
func cutOID(s string) (schema.OID, string, error) {
	num, rest, ok := strings.Cut(s, "/")
	if !ok {
		return 0, "", fmt.Errorf("core: malformed key %q: no OID", s)
	}
	oid, err := parseOID(num)
	return oid, rest, err
}

func parseOID(s string) (schema.OID, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: malformed OID %q", s)
	}
	return schema.OID(v), nil
}

// A durable datum is one tag byte naming its kind, then the value: the
// string's bytes; eight big-endian bytes of the int, or of the float's
// IEEE 754 bits; one byte 0 or 1 for the bool; time.Time's own binary
// form for the date, which keeps its instant and zone offset.
const (
	tagString = 's'
	tagInt    = 'i'
	tagFloat  = 'f'
	tagBool   = 'b'
	tagDate   = 'd'
)

func encodeDatum(d schema.Datum) ([]byte, error) {
	switch d.Kind() {
	case schema.KindString:
		return append([]byte{tagString}, d.Str()...), nil
	case schema.KindInt:
		return binary.BigEndian.AppendUint64([]byte{tagInt}, uint64(d.IntVal())), nil
	case schema.KindFloat:
		return binary.BigEndian.AppendUint64([]byte{tagFloat}, math.Float64bits(d.FloatVal())), nil
	case schema.KindBool:
		if d.BoolVal() {
			return []byte{tagBool, 1}, nil
		}
		return []byte{tagBool, 0}, nil
	case schema.KindDate:
		t, err := d.DateVal().MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: encoding date: %w", err)
		}
		return append([]byte{tagDate}, t...), nil
	}
	return nil, fmt.Errorf("core: cannot encode datum kind %v", d.Kind())
}

// decodeDatum is encodeDatum's inverse.  Any input that encodeDatum
// could not have produced is an error.
func decodeDatum(b []byte) (schema.Datum, error) {
	if len(b) == 0 {
		return schema.Datum{}, fmt.Errorf("core: empty datum")
	}
	val := b[1:]
	switch b[0] {
	case tagString:
		return schema.String(string(val)), nil
	case tagInt, tagFloat:
		if len(val) != 8 {
			return schema.Datum{}, fmt.Errorf("core: %c datum has %d value bytes, want 8", b[0], len(val))
		}
		bits := binary.BigEndian.Uint64(val)
		if b[0] == tagInt {
			return schema.Int(int64(bits)), nil
		}
		return schema.Float(math.Float64frombits(bits)), nil
	case tagBool:
		if len(val) != 1 || val[0] > 1 {
			return schema.Datum{}, fmt.Errorf("core: malformed bool datum % x", val)
		}
		return schema.Bool(val[0] == 1), nil
	case tagDate:
		var t time.Time
		if err := t.UnmarshalBinary(val); err != nil {
			return schema.Datum{}, fmt.Errorf("core: decoding date: %w", err)
		}
		return schema.Date(t), nil
	}
	return schema.Datum{}, fmt.Errorf("core: unknown datum tag %#x", b[0])
}

// ResourcesForVideo estimates the admission-control bundle a video stream
// of the given quality needs: one staging buffer, CPU and bus budget at
// the stream's data rate.
func ResourcesForVideo(q media.VideoQuality) sched.Resources {
	r := q.DataRate()
	return sched.Resources{Buffers: 1, CPU: r, Bus: r}
}
