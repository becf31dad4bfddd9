package core

import (
	"fmt"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
)

// DegradableSource is a source activity that can rebind to a cheaper
// representation of its value mid-stream (VideoReader implements it).
type DegradableSource interface {
	activity.Activity
	Degrade(v media.Value, port string) error
}

// DegradeSpec wires one stream's graceful-degradation path: when the
// sink reports a sustained stall — or the engine's overload sweep
// picks the session as a victim — the source is rebound to the
// fallback quality, the admission grant shrinks to the cheaper bundle,
// and the network reservation is renegotiated down — §4.1's quality
// factors used as the recovery currency.
type DegradeSpec struct {
	// Source is the reader to rebind; Port is its bound port ("out").
	Source DegradableSource
	Port   string
	// Sink is the activity whose EventStalled triggers degradation — a
	// VideoWindow with stall detection enabled.
	Sink activity.Activity
	// Quality is the fallback quality factor.
	Quality media.VideoQuality
	// Grant, when set, is shrunk to the fallback's resource bundle.
	Grant *sched.Grant
	// Conn, when set, is renegotiated to the fallback's data rate.
	Conn *netsim.Conn
}

// degradeState is the session's recorded degradation path plus enough
// of the original stream to reverse it: the full-quality binding, grant
// bundle and connection rate.  It is written on the engine goroutine
// (stall handlers and overload sweeps both run there) and read under
// the session lock.
type degradeState struct {
	spec DegradeSpec

	degraded    bool
	origVal     media.Value
	origRes     sched.Resources
	origRate    media.DataRate
	grantShrunk bool
	connDropped bool
}

// eventEmitter is satisfied by every activity embedding *activity.Base.
type eventEmitter interface {
	Emit(activity.EventInfo)
}

// EnableDegradation arms a quality renegotiation on the session: the
// first EventStalled from spec.Sink re-retrieves the bound value at
// spec.Quality, rebinds the source in place, shrinks the grant and
// renegotiates the connection, then emits EventDegraded on the sink
// and source.  The handler runs synchronously on the engine goroutine.
// A failed degradation attempt leaves the stream untouched, so a later
// stall edge (or the engine's next sweep) may try again.
//
// The same armed path is what the engine's overload control drives:
// under pressure the engine degrades armed sessions lowest priority
// first, and when pressure clears it restores them — Grant.Grow,
// Conn.Renegotiate back up, original binding back in place — emitting
// EventRestored.
func (s *Session) EnableDegradation(spec DegradeSpec) error {
	if spec.Source == nil || spec.Sink == nil {
		return fmt.Errorf("core: degradation needs a source and a sink")
	}
	if spec.Port == "" {
		spec.Port = "out"
	}
	if !spec.Quality.Valid() {
		return fmt.Errorf("core: invalid fallback quality %v", spec.Quality)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	s.deg = &degradeState{spec: spec}
	s.mu.Unlock()
	return spec.Sink.Catch(activity.EventStalled, func(info activity.EventInfo) {
		// Already-degraded sessions ignore further stall edges; a failed
		// attempt stays un-degraded and retries on the next edge.
		s.degradeNow(info.At)
	})
}

// CanDegrade reports whether the session has an armed, not yet fired
// degradation path — the property the engine's sweep selects victims
// by.
func (s *Session) CanDegrade() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deg != nil && !s.deg.degraded && !s.closed
}

// Degraded reports whether the session currently runs its fallback
// quality.
func (s *Session) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deg != nil && s.deg.degraded
}

// degradeNow performs the renegotiation: retrieve cheaper, rebind,
// shrink, renegotiate, announce.  Idempotent while degraded.
func (s *Session) degradeNow(at avtime.WorldTime) error {
	s.mu.Lock()
	st := s.deg
	closed := s.closed
	s.mu.Unlock()
	if st == nil {
		return fmt.Errorf("core: session %s has no degradation path", s.id)
	}
	if closed {
		return fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	if st.degraded {
		return nil
	}
	spec := st.spec
	v, ok := spec.Source.Binding(spec.Port)
	if !ok {
		return fmt.Errorf("core: %s has no binding on %q", spec.Source.Name(), spec.Port)
	}
	degraded, _, err := RetrieveAtQuality(v, spec.Quality)
	if err != nil {
		return err
	}
	if err := spec.Source.Degrade(degraded, spec.Port); err != nil {
		return err
	}
	rate := spec.Quality.DataRate()
	if spec.Grant != nil {
		target := ResourcesForVideo(spec.Quality)
		// Shrinking is strictly downward; a target the grant cannot cover
		// means the grant was already cheaper — leave it.
		if target.Fits(spec.Grant.Resources()) {
			before := spec.Grant.Resources()
			if err := spec.Grant.Shrink(target); err != nil {
				return err
			}
			s.mu.Lock()
			st.origRes, st.grantShrunk = before, true
			s.mu.Unlock()
		}
	}
	if spec.Conn != nil && rate < spec.Conn.Rate() {
		before := spec.Conn.Rate()
		if err := spec.Conn.Renegotiate(rate); err != nil {
			return err
		}
		s.mu.Lock()
		st.origRate, st.connDropped = before, true
		s.mu.Unlock()
	}
	s.mu.Lock()
	st.origVal = v
	st.degraded = true
	s.mu.Unlock()
	if em, ok := spec.Sink.(eventEmitter); ok {
		em.Emit(activity.EventInfo{Event: activity.EventDegraded, Activity: spec.Sink.Name(), At: at})
	}
	if em, ok := spec.Source.(eventEmitter); ok {
		em.Emit(activity.EventInfo{Event: activity.EventDegraded, Activity: spec.Source.Name(), At: at})
	}
	s.db.metrics().degraded.Add(1)
	return nil
}

// restoreNow reverses a fired degradation once pressure clears: the
// grant grows back (competing for the budget again — failure leaves
// the session degraded), the connection renegotiates up, the original
// binding is restored, and EventRestored is announced.  The engine's
// restore sweep is the only caller; it runs on the engine goroutine.
func (s *Session) restoreNow(at avtime.WorldTime) error {
	s.mu.Lock()
	st := s.deg
	closed := s.closed
	var snap degradeState
	if st != nil {
		snap = *st
	}
	s.mu.Unlock()
	if st == nil || !snap.degraded {
		return nil
	}
	if closed {
		return fmt.Errorf("%w: %s", ErrSessionClosed, s.id)
	}
	spec := snap.spec
	if snap.grantShrunk {
		if err := spec.Grant.Grow(snap.origRes); err != nil {
			return err
		}
	}
	if snap.connDropped {
		if err := spec.Conn.Renegotiate(snap.origRate); err != nil {
			// Roll the grant back so accounting matches the stream that
			// stays degraded.
			if snap.grantShrunk {
				spec.Grant.Shrink(ResourcesForVideo(spec.Quality))
			}
			return err
		}
	}
	if err := spec.Source.Degrade(snap.origVal, spec.Port); err != nil {
		if snap.connDropped {
			spec.Conn.Renegotiate(spec.Quality.DataRate())
		}
		if snap.grantShrunk {
			spec.Grant.Shrink(ResourcesForVideo(spec.Quality))
		}
		return err
	}
	s.mu.Lock()
	st.degraded, st.grantShrunk, st.connDropped = false, false, false
	s.mu.Unlock()
	if em, ok := spec.Sink.(eventEmitter); ok {
		em.Emit(activity.EventInfo{Event: activity.EventRestored, Activity: spec.Sink.Name(), At: at})
	}
	if em, ok := spec.Source.(eventEmitter); ok {
		em.Emit(activity.EventInfo{Event: activity.EventRestored, Activity: spec.Source.Name(), At: at})
	}
	s.db.metrics().restored.Add(1)
	return nil
}
