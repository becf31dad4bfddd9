package sched

import "avdb/internal/avtime"

// HorizonHeap is an indexed binary min-heap of world times keyed by run
// slot (RunID.Slot).  The engine keeps the commit horizon of every
// admitted run in it, so the clock's commit point is the top and a
// step re-keys only the runs it ticked — O(due · log n), never a walk
// over every admitted run.
//
// The zero value is empty and ready to use.  Like RunSet, it is not
// goroutine-safe.
type HorizonHeap struct {
	keys []horizonKey // min-heap on at
	pos  []int32      // by slot: the slot's index in keys, or -1
}

type horizonKey struct {
	at   avtime.WorldTime
	slot int32
}

// Set keys slot at the given time, adding the slot if it is absent.
func (q *HorizonHeap) Set(slot int, at avtime.WorldTime) {
	for len(q.pos) <= slot {
		q.pos = append(q.pos, -1)
	}
	i := int(q.pos[slot])
	if i < 0 {
		i = len(q.keys)
		q.keys = append(q.keys, horizonKey{at: at, slot: int32(slot)})
		q.pos[slot] = int32(i)
		q.up(i)
		return
	}
	old := q.keys[i].at
	q.keys[i].at = at
	if at < old {
		q.up(i)
	} else if at > old {
		q.down(i)
	}
}

// Remove drops slot; an absent slot is ignored.
func (q *HorizonHeap) Remove(slot int) {
	if slot >= len(q.pos) || q.pos[slot] < 0 {
		return
	}
	i, last := int(q.pos[slot]), len(q.keys)-1
	q.move(last, i)
	q.pos[slot] = -1
	q.keys = q.keys[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
}

// Min returns the earliest time in the heap; ok is false when it is
// empty.
func (q *HorizonHeap) Min() (at avtime.WorldTime, ok bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].at, true
}

// move puts the key at index from into index to.
func (q *HorizonHeap) move(from, to int) {
	q.keys[to] = q.keys[from]
	q.pos[q.keys[to].slot] = int32(to)
}

func (q *HorizonHeap) up(i int) {
	k := q.keys[i]
	for i > 0 {
		p := (i - 1) / 2
		if q.keys[p].at <= k.at {
			break
		}
		q.move(p, i)
		i = p
	}
	q.keys[i] = k
	q.pos[k.slot] = int32(i)
}

func (q *HorizonHeap) down(i int) {
	k := q.keys[i]
	n := len(q.keys)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.keys[r].at < q.keys[c].at {
			c = r
		}
		if q.keys[c].at >= k.at {
			break
		}
		q.move(c, i)
		i = c
	}
	q.keys[i] = k
	q.pos[k.slot] = int32(i)
}
