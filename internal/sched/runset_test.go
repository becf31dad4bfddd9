package sched

import (
	"reflect"
	"testing"

	"avdb/internal/avtime"
)

func TestRunSetDueBatchOrder(t *testing.T) {
	var s RunSet
	if _, _, ok := s.DueBatch(); ok {
		t.Fatal("empty set reported a due batch")
	}
	a := s.Admit(0)
	b := s.Admit(0)
	c := s.Admit(50 * avtime.Millisecond)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	due, ids, ok := s.DueBatch()
	if !ok || due != 0 {
		t.Fatalf("DueBatch = %v,%v, want due 0", due, ok)
	}
	// Ties break in admission order.
	if !reflect.DeepEqual(ids, []RunID{a, b}) {
		t.Fatalf("batch = %v, want [%v %v]", ids, a, b)
	}

	// Reschedule the first past the third: the batch moves on.
	s.Reschedule(a, 100*avtime.Millisecond)
	s.Reschedule(b, 50*avtime.Millisecond)
	due, ids, _ = s.DueBatch()
	if due != 50*avtime.Millisecond {
		t.Fatalf("due = %v, want 50ms", due)
	}
	// b and c now tie; b was admitted first.
	if !reflect.DeepEqual(ids, []RunID{b, c}) {
		t.Fatalf("batch = %v, want [%v %v]", ids, b, c)
	}

	s.Remove(b)
	due, ids, _ = s.DueBatch()
	if due != 50*avtime.Millisecond || !reflect.DeepEqual(ids, []RunID{c}) {
		t.Fatalf("after remove: due=%v ids=%v", due, ids)
	}
	s.Remove(c)
	s.Remove(a)
	if s.Len() != 0 {
		t.Fatalf("Len after removals = %d", s.Len())
	}
	// Unknown ids are ignored, not a panic.
	s.Remove(a)
	s.Reschedule(b, 0)

	// Ids keep increasing after drain, so a restarted playback's entry
	// never collides with a retired one.
	d := s.Admit(0)
	if d <= c {
		t.Errorf("Admit after drain reused id space: %v <= %v", d, c)
	}
}

// TestRunSetSlotReuse pins the dense slots: a removed run's slot goes to
// the next admission, whose id still orders after every earlier one, and
// the stale id names nothing — rescheduling or removing it leaves the
// slot's new run alone.
func TestRunSetSlotReuse(t *testing.T) {
	var s RunSet
	a := s.Admit(0)
	b := s.Admit(0)
	s.Remove(a)
	c := s.Admit(10 * avtime.Millisecond)
	if c.Slot() != a.Slot() || c <= b {
		t.Fatalf("Admit after Remove: id %v slot %d, want slot %d and an id above %v", c, c.Slot(), a.Slot(), b)
	}
	s.Reschedule(a, 0)
	s.Remove(a)
	if s.Len() != 2 {
		t.Fatalf("Len = %d after stale ops, want 2", s.Len())
	}
	s.Reschedule(b, 20*avtime.Millisecond)
	due, ids, _ := s.DueBatch()
	if due != 10*avtime.Millisecond || !reflect.DeepEqual(ids, []RunID{c}) {
		t.Fatalf("DueBatch = %v %v, want 10ms [%v]", due, ids, c)
	}
	if d := s.Admit(0); d.Slot() != 2 {
		t.Fatalf("Admit with no free slot took slot %d, want 2", d.Slot())
	}
}
