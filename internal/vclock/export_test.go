package vclock

import (
	"container/heap"
	"time"
)

// Stepping the simulated clock one event at a time, and draining it, are
// how tests drive a Sim; production code advances it with RunUntil.

// step runs the single next pending callback (advancing the clock to its due
// time) and reports whether one existed.
func (s *Sim) step() bool {
	fn, ok := s.popDue(time.Time{})
	if !ok {
		return false
	}
	fn()
	return true
}

// Run drains the event queue completely, with a safety cap on the number of
// callbacks to avoid runaway self-rescheduling loops. It returns the number
// of callbacks run and whether the queue actually drained: drained == false
// means the cap cut the simulation short with events still pending, which
// callers must treat as an error rather than a completed run.
func (s *Sim) Run(maxEvents int) (ran int, drained bool) {
	for ran < maxEvents {
		if !s.step() {
			return ran, true
		}
		ran++
	}
	_, pending := s.nextEventAt()
	return ran, !pending
}

// nextEventAt returns the due time of the earliest pending callback, and
// false when the queue is empty.
func (s *Sim) nextEventAt() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 && s.queue[0].stopped {
		heap.Pop(&s.queue)
	}
	if len(s.queue) == 0 {
		return time.Time{}, false
	}
	return s.queue[0].at, true
}
