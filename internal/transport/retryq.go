package transport

import (
	"container/heap"
	"time"
)

// sendState tracks one inflight entry: picked up by a flush and not yet
// acknowledged. Records are recycled through link.free, so steady-state
// sending allocates none.
type sendState struct {
	id uint64
	// due is when the next retransmission is owed: the last transmission
	// plus the backoff for the attempts so far. The zero time (set by a
	// reconnect) means at once.
	due time.Time
	// attempts counts completed transmissions; 0 while the first is still
	// in the messenger's hands.
	attempts int
	pos      int // index in the deadline queue, -1 while not queued
}

// deadlineQueue is a min-heap of inflight entries by retransmission
// deadline, each record knowing its own position so an ack removes it in
// O(log n) — no stale items, no rebuilds. It answers the two questions every
// flush asks of the inflight set, "which entries are due" and "when is the
// next one due", without visiting the entries that are not. Len, Less, Swap,
// Push and Pop serve container/heap; the queue's own methods are push,
// remove and popDue.
type deadlineQueue []*sendState

func (q deadlineQueue) Len() int           { return len(q) }
func (q deadlineQueue) Less(i, j int) bool { return q[i].due.Before(q[j].due) }

func (q deadlineQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}

func (q *deadlineQueue) Push(x any) {
	st := x.(*sendState)
	st.pos = len(*q)
	*q = append(*q, st)
}

func (q *deadlineQueue) Pop() any {
	n := len(*q) - 1
	st := (*q)[n]
	(*q)[n] = nil
	*q = (*q)[:n]
	st.pos = -1
	return st
}

func (q *deadlineQueue) push(st *sendState) { heap.Push(q, st) }

// remove takes st out of the queue; st must be queued (pos ≥ 0).
func (q *deadlineQueue) remove(st *sendState) { heap.Remove(q, st.pos) }

// popDue removes and returns the entry with the earliest deadline if that
// deadline has been reached at now, nil otherwise.
func (q *deadlineQueue) popDue(now time.Time) *sendState {
	if len(*q) == 0 || (*q)[0].due.After(now) {
		return nil
	}
	return heap.Pop(q).(*sendState)
}
