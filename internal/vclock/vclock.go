// Package vclock abstracts time so that the entire Pogo stack can run either
// in real time (the cmd/ binaries) or in deterministic discrete-event
// simulated time (tests and the paper's experiments, which cover hours to
// weeks of virtual time).
//
// Every component below internal/core takes a Clock. Each simulated clock is
// a single event loop: callbacks fired by Advance/Run run on the calling
// goroutine in strict timestamp order, which makes experiment runs
// reproducible bit-for-bit. Parallelism comes from running *several* Sims —
// one per fleet shard — in lockstep time epochs (see internal/fleet), not
// from sharing one Sim across goroutines.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used throughout Pogo.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc schedules f to run after d. f runs on an unspecified
	// goroutine for the real clock and on the Advance/Run caller's goroutine
	// for the simulated clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle for a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the callback. It reports whether the call was prevented
	// from running.
	Stop() bool
}

// Real is a Clock backed by the system clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

// Sim is a deterministic discrete-event simulated clock.
//
// The zero value is not usable; construct with NewSim. Callbacks scheduled
// with AfterFunc run when the simulation is advanced past their due time, in
// (time, insertion) order, on the goroutine calling Advance/Run/Step.
// Callbacks may schedule further callbacks, including at the current instant.
type Sim struct {
	mu    sync.Mutex
	now   time.Time
	seq   uint64
	queue eventQueue
	// free recycles events created by Schedule. Those events never hand out
	// a Timer, so once popDue removes one from the heap no reference to it
	// survives and the struct can be reused. AfterFunc events are excluded:
	// their simTimer may call Stop at any later point, which must keep
	// observing the original event, not a recycled stranger.
	free []*event
}

var _ Clock = (*Sim)(nil)

// SimEpoch is the default start instant for simulated clocks.
var SimEpoch = time.Date(2012, time.June, 1, 0, 0, 0, 0, time.UTC)

// NewSim returns a simulated clock starting at SimEpoch.
func NewSim() *Sim { return NewSimAt(SimEpoch) }

// NewSimAt returns a simulated clock starting at the given instant.
func NewSimAt(start time.Time) *Sim { return &Sim{now: start} }

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc implements Clock. A non-positive delay schedules the callback at
// the current instant; it will still only run once the simulation advances
// (or Step is called).
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &event{at: s.now.Add(d), seq: s.seq, fn: f}
	s.seq++
	heap.Push(&s.queue, ev)
	return &simTimer{sim: s, ev: ev}
}

// Schedule is AfterFunc for callers that never cancel: it enqueues the
// callback without materializing a Timer handle. Ordering is identical to
// AfterFunc — the event joins the same (time, insertion) queue — but the
// event structs themselves are recycled through a free list, so steady-state
// self-rescheduling workloads (a fleet's flush ticks and traffic generators)
// schedule with zero allocations.
func (s *Sim) Schedule(d time.Duration, f func()) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*ev = event{at: s.now.Add(d), seq: s.seq, fn: f, pooled: true}
	} else {
		ev = &event{at: s.now.Add(d), seq: s.seq, fn: f, pooled: true}
	}
	s.seq++
	heap.Push(&s.queue, ev)
}

// Schedule runs f after d on clk, discarding the cancellation handle. On a
// simulated clock this skips the Timer allocation entirely; elsewhere it
// falls back to AfterFunc. For fire-and-forget wire hops (the memnet fabric)
// this is the cheap path.
func Schedule(clk Clock, d time.Duration, f func()) {
	if s, ok := clk.(*Sim); ok {
		s.Schedule(d, f)
		return
	}
	clk.AfterFunc(d, f)
}

// Rearm moves timer t, armed with clk.AfterFunc(_, f), to run f after d, and
// returns the Timer to keep in its place. The outcome is exactly that of
// t.Stop() followed by clk.AfterFunc(d, f) — on a simulated clock the same
// instant and the same place among the callbacks due then — but while t's
// callback has not yet been taken to run, no timer is made: a real timer is
// Reset, and a simulated event, pending or stopped, gets the due time and
// arming sequence number a fresh AfterFunc would have had and moves within
// the queue. t may be nil (nothing armed yet).
func Rearm(clk Clock, t Timer, d time.Duration, f func()) Timer {
	switch tm := t.(type) {
	case realTimer:
		if _, ok := clk.(Real); ok {
			tm.t.Reset(d) // an AfterFunc timer keeps its f
			return t
		}
	case *simTimer:
		if clk == Clock(tm.sim) && tm.sim.rearm(tm.ev, d, f) {
			return t
		}
	}
	if t != nil {
		t.Stop()
	}
	return clk.AfterFunc(d, f)
}

// rearm is Rearm for an event of s still in its queue; it reports false for
// one that has left it (fired, or stopped and discarded).
func (s *Sim) rearm(ev *event, d time.Duration, f func()) bool {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.index < 0 {
		return false
	}
	ev.at, ev.seq, ev.fn, ev.stopped = s.now.Add(d), s.seq, f, false
	s.seq++
	heap.Fix(&s.queue, ev.index)
	return true
}

// Advance moves simulated time forward by d, running every due callback in
// order. It returns the number of callbacks run.
func (s *Sim) Advance(d time.Duration) int {
	s.mu.Lock()
	deadline := s.now.Add(d)
	s.mu.Unlock()
	return s.RunUntil(deadline)
}

// RunUntil runs callbacks due at or before deadline, advancing the clock to
// each event's timestamp, then sets the clock to deadline. It returns the
// number of callbacks run.
func (s *Sim) RunUntil(deadline time.Time) int {
	ran := 0
	for {
		fn, ok := s.popDue(deadline)
		if !ok {
			break
		}
		fn()
		ran++
	}
	s.mu.Lock()
	if s.now.Before(deadline) {
		s.now = deadline
	}
	s.mu.Unlock()
	return ran
}

// Step runs the single next pending callback (advancing the clock to its due
// time) and reports whether one existed.
func (s *Sim) Step() bool {
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
		if !s.Step() {
			return ran, true
		}
		ran++
	}
	_, pending := s.NextEventAt()
	return ran, !pending
}

// Pending returns the number of scheduled, uncancelled callbacks.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.queue {
		if !ev.stopped {
			n++
		}
	}
	return n
}

// NextEventAt returns the due time of the earliest pending callback, and
// false when the queue is empty.
func (s *Sim) NextEventAt() (time.Time, bool) {
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

// popDue removes and returns the earliest event. When deadline is non-zero,
// only events due at or before it qualify. The clock advances to the event's
// timestamp.
func (s *Sim) popDue(deadline time.Time) (func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if ev.stopped {
			heap.Pop(&s.queue)
			continue
		}
		if !deadline.IsZero() && ev.at.After(deadline) {
			return nil, false
		}
		heap.Pop(&s.queue)
		// Mark before releasing the lock: once the event leaves the heap its
		// callback is committed to run, so a concurrent (or later) Stop must
		// report false rather than claim it prevented anything.
		ev.fired = true
		if ev.at.After(s.now) {
			s.now = ev.at
		}
		fn := ev.fn
		if ev.pooled {
			// No Timer handle exists for a Schedule event, so after this pop
			// nothing can reach it again: clear the callback reference and
			// recycle the struct.
			ev.fn = nil
			s.free = append(s.free, ev)
		}
		return fn, true
	}
	return nil, false
}

type event struct {
	at      time.Time
	seq     uint64
	fn      func()
	stopped bool
	fired   bool // left the heap for execution; Stop can no longer prevent it
	pooled  bool // created by Schedule (no Timer handle); recycled after firing
	index   int  // position in the queue; -1 once popped
}

type simTimer struct {
	sim *Sim
	ev  *event
}

func (t *simTimer) Stop() bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	if t.ev.stopped || t.ev.fired {
		return false
	}
	t.ev.stopped = true
	return true
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
