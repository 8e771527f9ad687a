package transport

import "time"

// sendState tracks one inflight entry: picked up by a flush and not yet
// acknowledged. Records are recycled through Endpoint.free, so steady-state
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
// next one due", without visiting the entries that are not.
type deadlineQueue []*sendState

func (q deadlineQueue) less(i, j int) bool { return q[i].due.Before(q[j].due) }

func (q deadlineQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}

func (q deadlineQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q deadlineQueue) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(q) && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < len(q) && q.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		q.swap(i, least)
		i = least
	}
}

func (q *deadlineQueue) push(st *sendState) {
	st.pos = len(*q)
	*q = append(*q, st)
	q.up(st.pos)
}

// remove takes st out of the queue; st must be queued (pos ≥ 0).
func (q *deadlineQueue) remove(st *sendState) {
	i, last := st.pos, len(*q)-1
	if i != last {
		q.swap(i, last)
	}
	(*q)[last] = nil
	*q = (*q)[:last]
	st.pos = -1
	if i != last {
		q.down(i)
		q.up(i)
	}
}

// popDue removes and returns the entry with the earliest deadline if that
// deadline has been reached at now, nil otherwise.
func (q *deadlineQueue) popDue(now time.Time) *sendState {
	if len(*q) == 0 || (*q)[0].due.After(now) {
		return nil
	}
	st := (*q)[0]
	q.remove(st)
	return st
}
