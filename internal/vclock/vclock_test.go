package vclock

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSimStartsAtEpoch(t *testing.T) {
	s := NewSim()
	if !s.Now().Equal(SimEpoch) {
		t.Errorf("Now = %v, want %v", s.Now(), SimEpoch)
	}
}

func TestSimAdvanceRunsDueCallbacks(t *testing.T) {
	s := NewSim()
	var fired []time.Time
	s.AfterFunc(10*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.AfterFunc(20*time.Millisecond, func() { fired = append(fired, s.Now()) })
	s.AfterFunc(30*time.Millisecond, func() { fired = append(fired, s.Now()) })

	if n := s.Advance(25 * time.Millisecond); n != 2 {
		t.Fatalf("Advance ran %d callbacks, want 2", n)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d, want 2", len(fired))
	}
	if !fired[0].Equal(SimEpoch.Add(10 * time.Millisecond)) {
		t.Errorf("first callback at %v", fired[0])
	}
	if !s.Now().Equal(SimEpoch.Add(25 * time.Millisecond)) {
		t.Errorf("clock at %v after Advance", s.Now())
	}
	if n := s.Advance(5 * time.Millisecond); n != 1 {
		t.Errorf("second Advance ran %d, want 1", n)
	}
}

func TestSimOrderingSameInstant(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	s.Advance(time.Second)
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("order = %v, want insertion order", order)
	}
}

func TestSimZeroAndNegativeDelay(t *testing.T) {
	s := NewSim()
	ran := 0
	s.AfterFunc(0, func() { ran++ })
	s.AfterFunc(-time.Hour, func() { ran++ })
	if ran != 0 {
		t.Fatal("callbacks ran before advancing")
	}
	s.Advance(0)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim()
	ran := false
	tm := s.AfterFunc(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Error("first Stop = false, want true")
	}
	if tm.Stop() {
		t.Error("second Stop = true, want false")
	}
	s.Advance(2 * time.Second)
	if ran {
		t.Error("stopped callback ran")
	}
}

func TestSimCallbackSchedulesCallback(t *testing.T) {
	s := NewSim()
	var hits []time.Duration
	var tick func()
	tick = func() {
		hits = append(hits, s.Now().Sub(SimEpoch))
		if len(hits) < 3 {
			s.AfterFunc(time.Minute, tick)
		}
	}
	s.AfterFunc(time.Minute, tick)
	s.Advance(time.Hour)
	want := []time.Duration{time.Minute, 2 * time.Minute, 3 * time.Minute}
	if !reflect.DeepEqual(hits, want) {
		t.Errorf("hits = %v, want %v", hits, want)
	}
}

func TestSimStepAndPending(t *testing.T) {
	s := NewSim()
	ran := 0
	s.AfterFunc(time.Second, func() { ran++ })
	s.AfterFunc(2*time.Second, func() { ran++ })
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	if at, ok := s.nextEventAt(); !ok || !at.Equal(SimEpoch.Add(time.Second)) {
		t.Errorf("NextEventAt = %v, %v", at, ok)
	}
	if !s.step() {
		t.Fatal("Step = false with pending events")
	}
	if ran != 1 || !s.Now().Equal(SimEpoch.Add(time.Second)) {
		t.Errorf("after Step: ran=%d now=%v", ran, s.Now())
	}
	if !s.step() || s.step() {
		t.Error("Step sequence wrong")
	}
}

func TestSimRunCap(t *testing.T) {
	s := NewSim()
	n := 0
	var loop func()
	loop = func() {
		n++
		s.AfterFunc(time.Millisecond, loop)
	}
	s.AfterFunc(time.Millisecond, loop)
	ran, drained := s.Run(100)
	if ran != 100 || n != 100 {
		t.Errorf("Run = %d, n = %d, want 100", ran, n)
	}
	if drained {
		t.Error("Run reported drained despite hitting the cap with the loop still scheduled")
	}
}

// TestSimRunReportsDrained locks in the fix for the silent-cap bug: a run
// that exhausts the queue reports drained=true, a run cut short by the cap
// reports drained=false, and a run whose last allowed callback empties the
// queue still counts as drained.
func TestSimRunReportsDrained(t *testing.T) {
	s := NewSim()
	for i := 0; i < 5; i++ {
		s.AfterFunc(time.Duration(i)*time.Second, func() {})
	}
	if ran, drained := s.Run(3); ran != 3 || drained {
		t.Errorf("capped: Run = %d, %v; want 3, false", ran, drained)
	}
	if ran, drained := s.Run(100); ran != 2 || !drained {
		t.Errorf("drain: Run = %d, %v; want 2, true", ran, drained)
	}
	s.AfterFunc(time.Second, func() {})
	if ran, drained := s.Run(1); ran != 1 || !drained {
		t.Errorf("exact: Run = %d, %v; want 1, true", ran, drained)
	}
	if ran, drained := s.Run(10); ran != 0 || !drained {
		t.Errorf("empty: Run = %d, %v; want 0, true", ran, drained)
	}
}

// TestStopAfterFireReturnsFalse locks in the Timer.Stop contract: once the
// callback has run (or is committed to run), Stop must report false. Before
// the fix popDue removed the event from the heap without marking it, so a
// later Stop saw stopped == false and claimed it prevented a run that had
// already happened.
func TestStopAfterFireReturnsFalse(t *testing.T) {
	s := NewSim()
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	s.Advance(2 * time.Second)
	if !fired {
		t.Fatal("setup: callback did not run")
	}
	if tm.Stop() {
		t.Error("Stop after fire = true; it cannot have prevented the run")
	}
	if tm.Stop() {
		t.Error("second Stop after fire = true")
	}

	// Stop from inside the callback itself: the event is already committed.
	var self Timer
	selfStop := true
	self = s.AfterFunc(time.Second, func() { selfStop = self.Stop() })
	s.Advance(2 * time.Second)
	if selfStop {
		t.Error("Stop from within the firing callback = true")
	}

	// The pre-fire path still reports true exactly once.
	tm2 := s.AfterFunc(time.Hour, func() {})
	if !tm2.Stop() {
		t.Error("Stop before fire = false")
	}
	if tm2.Stop() {
		t.Error("second Stop before fire = true")
	}
}

func TestSimNextEventSkipsStopped(t *testing.T) {
	s := NewSim()
	tm := s.AfterFunc(time.Second, func() {})
	s.AfterFunc(2*time.Second, func() {})
	tm.Stop()
	if at, ok := s.nextEventAt(); !ok || !at.Equal(SimEpoch.Add(2*time.Second)) {
		t.Errorf("NextEventAt = %v, %v; want 2s event", at, ok)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	c := Real{}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	if time.Since(c.Now()) > time.Minute {
		t.Error("Real.Now far from time.Now")
	}
}

func TestRealTimerStop(t *testing.T) {
	c := Real{}
	tm := c.AfterFunc(time.Hour, func() { t.Error("should not fire") })
	if !tm.Stop() {
		t.Error("Stop = false")
	}
}

// Property: callbacks always fire in nondecreasing timestamp order regardless
// of the order they were scheduled in.
func TestPropertyFiringOrder(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(20)
			delays := make([]int64, n)
			for i := range delays {
				delays[i] = int64(r.Intn(1000))
			}
			args[0] = reflect.ValueOf(delays)
		},
	}
	prop := func(delays []int64) bool {
		s := NewSim()
		var fired []time.Time
		for _, d := range delays {
			s.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Advance(2 * time.Second)
		if len(fired) != len(delays) {
			return false
		}
		sorted := sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i].Before(fired[j]) })
		return sorted
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestScheduleRecyclesEvents(t *testing.T) {
	s := NewSim()
	// A self-rescheduling chain reuses one pooled event: after warmup, each
	// Schedule should pop the event the previous firing just recycled.
	fired := 0
	var tick func()
	tick = func() {
		fired++
		s.Schedule(time.Second, tick)
	}
	s.Schedule(time.Second, tick)
	allocs := testing.AllocsPerRun(10, func() {
		before := fired
		s.Advance(100 * time.Second)
		if fired <= before {
			t.Fatal("no callbacks ran")
		}
	})
	// Each Advance fires ~100 pooled events; the budget tolerates the heap
	// slice occasionally growing but catches a per-event allocation.
	if allocs > 5 {
		t.Fatalf("Advance allocated %.0f times per run; pooled Schedule events should not allocate per event", allocs)
	}
	// A fired event with no rescheduling stays on the free list.
	s.Schedule(time.Second, func() {})
	s.Advance(time.Second)
	if len(s.free) == 0 {
		t.Fatal("free list empty after a pooled event fired")
	}
}

func TestScheduleOrderingMatchesAfterFunc(t *testing.T) {
	// Pooled and unpooled events share one (time, insertion-seq) queue: a
	// mixed schedule must fire in exact insertion order at the same instant.
	s := NewSim()
	var got []int
	s.Schedule(time.Second, func() { got = append(got, 0) })
	s.AfterFunc(time.Second, func() { got = append(got, 1) })
	s.Schedule(time.Second, func() { got = append(got, 2) })
	s.AfterFunc(time.Second, func() { got = append(got, 3) })
	s.Advance(time.Second)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("fired order %v, want [0 1 2 3]", got)
	}
}

func TestAfterFuncStopUnaffectedByPooling(t *testing.T) {
	// An AfterFunc event must never be recycled: its Timer can Stop (or
	// observe firing) long after pooled neighbours churned through the free
	// list.
	s := NewSim()
	ran := false
	tm := s.AfterFunc(10*time.Second, func() { ran = true })
	for i := 0; i < 100; i++ {
		s.Schedule(time.Second, func() {})
	}
	s.Advance(5 * time.Second)
	if !tm.Stop() {
		t.Fatal("Stop before due time should report true")
	}
	s.Advance(10 * time.Second)
	if ran {
		t.Fatal("stopped AfterFunc ran")
	}
}
