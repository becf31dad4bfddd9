package sched

import (
	"cmp"
	"container/heap"
	"slices"

	"avdb/internal/avtime"
)

// RunID names one admitted run inside a RunSet.  The low 32 bits are
// the run's slot and the bits above them count admissions, so ordering
// ids is ordering by admission and finding a run is one slice index.
type RunID int64

// slotBits is the width of the slot field at the bottom of a RunID.
const slotBits = 32

// Slot returns the run's dense slot: an index below the most runs ever
// admitted at once, held until the run is removed and then reused by a
// later admission.  Tables kept beside the set index by it.
func (id RunID) Slot() int { return int(uint32(id)) }

// RunSet is the admission book the multi-session engine schedules from:
// a set of runs, each with the world time its next tick is due.  Every
// step the engine asks for the batch of runs sharing the earliest due
// time, ticks them, and reschedules each with its new due time.
// Admission order is the tie-break, so the step sequence is
// deterministic for a given admission history regardless of map
// iteration or goroutine interleaving.  RunIDs are handed out in
// admission order, so ordering a batch by id IS ordering by admission.
//
// Each admitted run holds a dense slot (RunID.Slot), recycled when the
// run is removed; the set finds a run by its slot, and the engine keeps
// its entry table and commit-horizon heap (HorizonHeap) by the same
// slot, so no step looks a run up by hash.
//
// Runs sit in due-time buckets, the distinct due times in a binary
// min-heap: sessions of one rate started together stay co-due for their
// whole life, so the common step is "copy the front bucket, move each
// member to the next one" — O(1) per run and no comparison between runs
// at all.  A move appends to the target bucket and leaves a dead entry
// in the old one (lazy deletion); it costs an O(log buckets) heap push
// only when the target due time is new.  Buckets emptied by moves stay
// where they are until they surface at the top of the heap, and are then
// recycled with their storage.
//
// RunSet is not goroutine-safe; the engine serializes access under its
// own lock.
type RunSet struct {
	admitted int64      // admissions so far: the high bits of the last RunID
	runs     []*runSlot // by slot; a free slot's b is nil
	freeSlot []int32    // removed runs' slots, the last freed reused first
	heap     bucketHeap // min-heap on due; due times are distinct
	byDue    map[avtime.WorldTime]*dueBucket
	free     []*dueBucket // recycled buckets, storage retained
	ids      []RunID      // DueBatch result buffer
}

// Admit adds a run due at the given time and returns its id.
func (s *RunSet) Admit(due avtime.WorldTime) RunID {
	var slot int
	if n := len(s.freeSlot); n > 0 {
		slot, s.freeSlot = int(s.freeSlot[n-1]), s.freeSlot[:n-1]
	} else {
		slot = len(s.runs)
		s.runs = append(s.runs, new(runSlot))
	}
	s.admitted++
	r := s.runs[slot]
	r.id = RunID(s.admitted<<slotBits | int64(slot))
	s.place(r, due)
	return r.id
}

// lookup returns the admitted run id names, or nil for an id that was
// removed (its slot free or reused) or never handed out.
func (s *RunSet) lookup(id RunID) *runSlot {
	if slot := id.Slot(); slot < len(s.runs) {
		if r := s.runs[slot]; r.id == id && r.b != nil {
			return r
		}
	}
	return nil
}

// Reschedule updates a run's next due time.  Unknown ids are ignored
// (the run may have been removed by a concurrent finish).
func (s *RunSet) Reschedule(id RunID, due avtime.WorldTime) {
	if r := s.lookup(id); r != nil && r.b.due != due {
		r.leave()
		s.place(r, due)
	}
}

// Remove deletes a run from the set and frees its slot.
func (s *RunSet) Remove(id RunID) {
	if r := s.lookup(id); r != nil {
		r.leave()
		r.b = nil
		s.freeSlot = append(s.freeSlot, int32(id.Slot()))
	}
}

// Len returns the number of admitted runs.
func (s *RunSet) Len() int { return len(s.runs) - len(s.freeSlot) }

// DueBatch returns the earliest due time and the ids of every run due
// at exactly that time, in admission order.  ok is false when the set
// is empty.
//
// The returned slice is a buffer owned by the set, valid only until the
// next DueBatch call; callers that keep the batch across calls must
// copy it.  Admit/Reschedule/Remove never touch the buffer, so the
// engine's pop-tick-reschedule step may iterate it freely.
func (s *RunSet) DueBatch() (due avtime.WorldTime, ids []RunID, ok bool) {
	b := s.front()
	if b == nil {
		return 0, nil, false
	}
	if !b.clean {
		b.compact()
	}
	s.ids = s.ids[:0]
	for _, r := range b.runs {
		s.ids = append(s.ids, r.id)
	}
	return b.due, s.ids, true
}

// runSlot is where one run currently sits: entry i of bucket b.  An
// entry of a bucket is live only while the slot it names points back at
// it, so moving or removing a run is a pointer update and the entry it
// leaves behind is dropped the next time the bucket is compacted.
type runSlot struct {
	id RunID
	b  *dueBucket
	i  int
}

// dueBucket holds the runs due at one time.
type dueBucket struct {
	due   avtime.WorldTime
	runs  []*runSlot // live entries and the dead ones moves left behind
	live  int
	clean bool // no dead entry, ids ascending: runs is the batch as it stands
}

// leave kills r's entry in its bucket.
func (r *runSlot) leave() {
	r.b.live--
	r.b.clean = false
}

// bucketHeap orders buckets by due time for container/heap.
type bucketHeap []*dueBucket

func (h bucketHeap) Len() int           { return len(h) }
func (h bucketHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h bucketHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bucketHeap) Push(b any)        { *h = append(*h, b.(*dueBucket)) }
func (h *bucketHeap) Pop() any {
	old := *h
	b := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return b
}

// place appends r to the bucket for due, creating it if need be.
func (s *RunSet) place(r *runSlot, due avtime.WorldTime) {
	b := s.byDue[due]
	if b == nil {
		b = s.newBucket(due)
	} else if len(b.runs) >= 2*b.live+8 {
		// Runs bouncing between buckets the front never reaches would
		// otherwise grow them without bound.
		b.compact()
	}
	if n := len(b.runs); n > 0 && b.runs[n-1].id > r.id {
		b.clean = false
	}
	r.b, r.i = b, len(b.runs)
	b.runs = append(b.runs, r)
	b.live++
}

func (s *RunSet) newBucket(due avtime.WorldTime) *dueBucket {
	var b *dueBucket
	if n := len(s.free); n > 0 {
		b, s.free = s.free[n-1], s.free[:n-1]
	} else {
		b = new(dueBucket)
	}
	b.due, b.clean = due, true
	if s.byDue == nil {
		s.byDue = make(map[avtime.WorldTime]*dueBucket)
	}
	s.byDue[due] = b
	heap.Push(&s.heap, b)
	return b
}

// front returns the earliest bucket holding a live run, recycling the
// emptied ones above it, or nil when no run is left.
func (s *RunSet) front() *dueBucket {
	for len(s.heap) > 0 {
		b := s.heap[0]
		if b.live > 0 {
			return b
		}
		s.pop()
	}
	return nil
}

// pop recycles the (empty) bucket at the top of the heap.
func (s *RunSet) pop() {
	b := heap.Pop(&s.heap).(*dueBucket)
	delete(s.byDue, b.due)
	b.runs = b.runs[:0]
	s.free = append(s.free, b)
}

// compact drops the bucket's dead entries and restores admission order.
func (b *dueBucket) compact() {
	n := 0
	for i, r := range b.runs {
		if r.b == b && r.i == i {
			b.runs[n] = r
			n++
		}
	}
	b.runs = b.runs[:n]
	slices.SortFunc(b.runs, func(x, y *runSlot) int { return cmp.Compare(x.id, y.id) })
	for i, r := range b.runs {
		r.i = i
	}
	b.clean = true
}
