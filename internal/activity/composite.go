package activity

import (
	"errors"
	"fmt"
	"sync"

	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
)

// MultiPayload is the element carried by a multiplexed composite stream:
// one chunk per track, bundled so that temporally correlated tracks cross
// a single connection together (the paper's single arrow between the
// MultiSource and MultiSink composites in Fig. 3).
//
// Unlike other elements it is an envelope, with an envelope's lifetime:
// the composite port that bundles it refills the same MultiPayload every
// tick, so it is valid only during the tick that carries it.  A part's
// Arrived is as bundled; the latency the outer chunk picked up since is
// added when a composite demultiplexes it.
type MultiPayload struct {
	Parts []Chunk // one chunk per track; Chunk.Track names it
}

// ElementKind reports media.KindMulti.
func (m *MultiPayload) ElementKind() media.Kind { return media.KindMulti }

// Size reports the total payload size of all parts.
func (m *MultiPayload) Size() int64 {
	var n int64
	for i := range m.Parts {
		n += m.Parts[i].Size()
	}
	return n
}

// Part returns the named track's chunk, or nil.
func (m *MultiPayload) Part(track string) *Chunk {
	for i := range m.Parts {
		if m.Parts[i].Track == track {
			return &m.Parts[i]
		}
	}
	return nil
}

// empty drops the parts, and the payloads they reference, keeping their
// storage for the next tick's bundle.
func (m *MultiPayload) empty() {
	clear(m.Parts)
	m.Parts = m.Parts[:0]
}

// Composite is a composite activity — flow-composition rule 2: an
// activity containing component activities, whose ports re-export
// component ports.  A composite that processes a temporally composed
// value contains one component per track and "would maintain the
// synchronization of its component activities" (§4.2); EnableSync turns
// that resynchronization on.
type Composite struct {
	*Base

	mu         sync.Mutex
	children   map[string]Activity
	childOrder []string
	internal   []*Connection
	// exports: composite port name -> (child, child port name)
	exportsIn  map[string]portRef
	exportsOut map[string]portRef
	// mux ports: composite port name -> set of (track=child name, port)
	muxOut map[string][]portRef
	muxIn  map[string][]portRef
	sync   *sched.Resync
	// plan is what Tick needs of all of the above, worked out once: the
	// components in topological order with their routing and a tick
	// context each.  Every structural edit sets it to nil and the next
	// Tick builds it again.
	plan *compositePlan
}

type portRef struct {
	child Activity
	port  string
}

// compositePlan is a composite's structure as Tick consumes it.  Ports
// are independent of one another, so their order is the maps'.
type compositePlan struct {
	nodes      []planNode // the components in internal topological order (plan.go)
	exportsIn  []planPort
	exportsOut []planPort
	muxIn      []planMux
	muxOut     []planMux
	sync       *sched.Resync
}

// planPort routes a composite port to a component port.
type planPort struct {
	name  string
	child *planNode
	port  string
}

type planMux struct {
	name   string
	tracks []planPort    // name is the track's, i.e. the component's
	env    *MultiPayload // an Out port's envelope, refilled every tick
}

// NewComposite returns an empty composite activity.
func NewComposite(name, class string, loc Location) *Composite {
	return &Composite{
		Base:       NewBase(name, class, loc),
		children:   make(map[string]Activity),
		exportsIn:  make(map[string]portRef),
		exportsOut: make(map[string]portRef),
		muxOut:     make(map[string][]portRef),
		muxIn:      make(map[string][]portRef),
	}
}

// Install adds a component activity — the paper's "install (new activity
// VideoSource ...) in dbSource".  Components must share the composite's
// location.
func (c *Composite) Install(child Activity) error {
	if child.Location() != c.Location() {
		return fmt.Errorf("activity: component %s at %v cannot join composite %s at %v",
			child.Name(), child.Location(), c.Name(), c.Location())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.children[child.Name()]; dup {
		return fmt.Errorf("activity: composite %s already contains %q", c.Name(), child.Name())
	}
	c.children[child.Name()] = child
	c.childOrder = append(c.childOrder, child.Name())
	c.plan = nil
	return nil
}

// Children returns the component activities in installation order.
func (c *Composite) Children() []Activity {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Activity, len(c.childOrder))
	for i, n := range c.childOrder {
		out[i] = c.children[n]
	}
	return out
}

// Child returns the named component.
func (c *Composite) Child(name string) (Activity, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.children[name]
	return a, ok
}

// ConnectChildren wires two components inside the composite; the same
// typing rules as Graph.Connect apply.
func (c *Composite) ConnectChildren(from Activity, outPort string, to Activity, inPort string) (*Connection, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.children[from.Name()]; !ok {
		return nil, fmt.Errorf("activity: composite %s does not contain %q", c.Name(), from.Name())
	}
	if _, ok := c.children[to.Name()]; !ok {
		return nil, fmt.Errorf("activity: composite %s does not contain %q", c.Name(), to.Name())
	}
	fp, ok := from.Port(outPort)
	if !ok || fp.Dir() != Out {
		return nil, fmt.Errorf("activity: %s has no out port %q", from.Name(), outPort)
	}
	tp, ok := to.Port(inPort)
	if !ok || tp.Dir() != In {
		return nil, fmt.Errorf("activity: %s has no in port %q", to.Name(), inPort)
	}
	if fp.Type() != tp.Type() {
		return nil, fmt.Errorf("activity: port types differ: %v vs %v", fp, tp)
	}
	conn := &Connection{from: from, fromPort: fp, to: to, toPort: tp}
	c.internal = append(c.internal, conn)
	c.plan = nil
	return conn, nil
}

// ExportIn re-exports a component's In port as a composite In port of the
// same type ("it is possible to connect an 'out' port of a component to
// the 'out' of the composite ... a similar rule applies to 'in' ports").
func (c *Composite) ExportIn(name string, child Activity, childPort string) error {
	p, err := c.checkExport(child, childPort, In)
	if err != nil {
		return err
	}
	c.AddPort(name, In, p.Type())
	c.mu.Lock()
	c.exportsIn[name] = portRef{child, childPort}
	c.plan = nil
	c.mu.Unlock()
	return nil
}

// ExportOut re-exports a component's Out port as a composite Out port.
func (c *Composite) ExportOut(name string, child Activity, childPort string) error {
	p, err := c.checkExport(child, childPort, Out)
	if err != nil {
		return err
	}
	c.AddPort(name, Out, p.Type())
	c.mu.Lock()
	c.exportsOut[name] = portRef{child, childPort}
	c.plan = nil
	c.mu.Unlock()
	return nil
}

// ExportMuxOut declares a multiplexing Out port of type multi/tracks that
// bundles the given component Out ports; each component's stream becomes
// a track named after the component.
func (c *Composite) ExportMuxOut(name string, refs ...TrackRef) error {
	if len(refs) == 0 {
		return fmt.Errorf("activity: mux port %q needs at least one track", name)
	}
	var prs []portRef
	for _, r := range refs {
		if _, err := c.checkExport(r.Child, r.Port, Out); err != nil {
			return err
		}
		prs = append(prs, portRef{r.Child, r.Port})
	}
	c.AddPort(name, Out, media.TypeMultiTrack)
	c.mu.Lock()
	c.muxOut[name] = prs
	c.plan = nil
	c.mu.Unlock()
	return nil
}

// ExportMuxIn declares a demultiplexing In port of type multi/tracks that
// routes each track to the component of the same name through the given
// In port.
func (c *Composite) ExportMuxIn(name string, refs ...TrackRef) error {
	if len(refs) == 0 {
		return fmt.Errorf("activity: mux port %q needs at least one track", name)
	}
	var prs []portRef
	for _, r := range refs {
		if _, err := c.checkExport(r.Child, r.Port, In); err != nil {
			return err
		}
		prs = append(prs, portRef{r.Child, r.Port})
	}
	c.AddPort(name, In, media.TypeMultiTrack)
	c.mu.Lock()
	c.muxIn[name] = prs
	c.plan = nil
	c.mu.Unlock()
	return nil
}

// TrackRef names a component port participating in a mux port.
type TrackRef struct {
	Child Activity
	Port  string
}

func (c *Composite) checkExport(child Activity, childPort string, dir Dir) (*Port, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.children[child.Name()]; !ok {
		return nil, fmt.Errorf("activity: composite %s does not contain %q", c.Name(), child.Name())
	}
	p, ok := child.Port(childPort)
	if !ok {
		return nil, fmt.Errorf("activity: %s has no port %q", child.Name(), childPort)
	}
	if p.Dir() != dir {
		return nil, fmt.Errorf("activity: %v direction mismatch for export", p)
	}
	return p, nil
}

// EnableSync attaches a resynchronization controller so the composite
// keeps its tracks temporally correlated; alpha is the estimator's
// smoothing factor.
func (c *Composite) EnableSync(alpha float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync = sched.NewResync(alpha)
	c.plan = nil
}

// SyncController returns the resynchronization controller, if enabled.
func (c *Composite) SyncController() *sched.Resync {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sync
}

// Start starts the composite and all components.
func (c *Composite) Start() error {
	for _, child := range c.Children() {
		if err := child.Start(); err != nil {
			return err
		}
	}
	return c.Base.Start()
}

// Stop stops the composite and all components, joining any component
// Stop errors with the composite's own.
func (c *Composite) Stop() error {
	var errs []error
	for _, child := range c.Children() {
		if err := child.Stop(); err != nil {
			errs = append(errs, fmt.Errorf("activity: stopping component %s: %w", child.Name(), err))
		}
	}
	errs = append(errs, c.Base.Stop())
	return errors.Join(errs...)
}

// Tick implements Activity: it routes composite inputs to components,
// with the synchronization corrections applied, steps the components in
// internal topological order exactly as a graph run steps its nodes
// (planNode.step), and assembles composite outputs.  Components tick in
// the storage round the composite was given.
func (c *Composite) Tick(tc *TickContext) error {
	c.mu.Lock()
	plan := c.plan
	if plan == nil {
		var err error
		if plan, err = c.buildPlan(); err != nil {
			c.mu.Unlock()
			return err
		}
		c.plan = plan
	}
	c.mu.Unlock()

	for i := range plan.nodes {
		plan.nodes[i].tc.reset(tc.Now, tc.Seq, tc.Interval, tc.Round)
	}

	// Route composite inputs.
	for _, ex := range plan.exportsIn {
		if in := tc.In(ex.name); in != nil {
			ex.child.tc.SetIn(ex.port, in)
		}
	}
	for _, mux := range plan.muxIn {
		in := tc.In(mux.name)
		if in == nil {
			continue
		}
		mp, ok := in.Payload.(*MultiPayload)
		if !ok {
			return fmt.Errorf("activity: %s.%s received non-multiplexed payload", c.Name(), mux.name)
		}
		for _, tr := range mux.tracks {
			part := mp.Part(tr.name)
			if part == nil {
				continue
			}
			// The envelope's latency since bundling reaches the part here,
			// and a nested envelope carries it on to its own parts.
			cp := *part
			cp.Arrived += in.shift
			cp.shift += in.shift
			if plan.sync != nil {
				lat := cp.Arrived - cp.At
				if lat < 0 {
					lat = 0
				}
				cp.Arrived += plan.sync.Correction(tr.name)
				plan.sync.Observe(tr.name, lat)
			}
			tr.child.tc.SetIn(tr.port, &cp)
		}
	}

	// Run components, each by the step a graph runs its nodes with.  A
	// component's outputs stay in its context, where the components it
	// feeds and the composite's Out ports find them; each is named as its
	// component's track.
	for i := range plan.nodes {
		pc := &plan.nodes[i]
		if _, _, err := pc.step(tc.Now, nil); err != nil {
			return err
		}
		for j := range pc.tc.out {
			if s := &pc.tc.out[j]; s.set && s.c.Track == "" {
				s.c.Track = pc.act.Name()
			}
		}
	}

	// Assemble composite outputs.
	for _, ex := range plan.exportsOut {
		if chunk := ex.child.tc.Out(ex.port); chunk != nil {
			tc.Emit(ex.name, chunk)
		}
	}
	for _, mux := range plan.muxOut {
		env := mux.env
		env.empty()
		var arrived avtime.WorldTime
		for _, tr := range mux.tracks {
			chunk := tr.child.tc.Out(tr.port)
			if chunk == nil {
				continue
			}
			env.Parts = append(env.Parts, *chunk)
			env.Parts[len(env.Parts)-1].Track = tr.name
			arrived = max(arrived, chunk.Arrived)
		}
		if len(env.Parts) > 0 {
			tc.Emit(mux.name, &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: arrived, Payload: env})
		}
	}

	// A source composite finishes when all its source components have.
	if c.Kind() == KindSource && sourcesDone(plan.nodes) {
		c.MarkDone()
	}
	return nil
}

// buildPlan works out the tick plan from the composite's structure; the
// caller holds c.mu.
func (c *Composite) buildPlan() (*compositePlan, error) {
	children := make([]Activity, len(c.childOrder))
	for i, n := range c.childOrder {
		children[i] = c.children[n]
	}
	nodes, ok := planNodes(children, c.internal)
	if !ok {
		return nil, fmt.Errorf("activity: composite contains a component cycle")
	}
	plan := &compositePlan{nodes: nodes, sync: c.sync}
	byName := make(map[string]*planNode, len(nodes))
	for i := range nodes {
		byName[nodes[i].act.Name()] = &nodes[i]
	}
	route := func(name string, ref portRef) planPort {
		return planPort{name: name, child: byName[ref.child.Name()], port: ref.port}
	}
	for name, ref := range c.exportsIn {
		plan.exportsIn = append(plan.exportsIn, route(name, ref))
	}
	for name, ref := range c.exportsOut {
		plan.exportsOut = append(plan.exportsOut, route(name, ref))
	}
	mux := func(ports map[string][]portRef) []planMux {
		var out []planMux
		for name, refs := range ports {
			m := planMux{name: name}
			for _, ref := range refs {
				m.tracks = append(m.tracks, route(ref.child.Name(), ref))
			}
			out = append(out, m)
		}
		return out
	}
	plan.muxIn, plan.muxOut = mux(c.muxIn), mux(c.muxOut)
	for i := range plan.muxOut {
		plan.muxOut[i].env = &MultiPayload{Parts: make([]Chunk, 0, len(plan.muxOut[i].tracks))}
	}
	return plan, nil
}

// clearPlan empties the plan's retained contexts and envelopes (see
// planNode.clear).
func (c *Composite) clearPlan() {
	c.mu.Lock()
	plan := c.plan
	c.mu.Unlock()
	if plan == nil {
		return
	}
	for i := range plan.nodes {
		plan.nodes[i].clear()
	}
	for _, mux := range plan.muxOut {
		mux.env.empty()
	}
}
