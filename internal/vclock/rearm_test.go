package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// rearmWorld drives one simulated clock through a seeded random schedule of
// timer moves, stops, background events and advances, and logs every
// callback with its instant. rearm says how a timer is moved: with Rearm, or
// with the Stop + AfterFunc it replaces. Timer callbacks sometimes move
// themselves from inside the callback, after their event has fired.
func rearmWorld(seed int64, rearm func(s *Sim, t Timer, d time.Duration, f func()) Timer) (log []string) {
	s := NewSim()
	rng := rand.New(rand.NewSource(seed))
	ms := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Millisecond }
	timers := make([]Timer, 4)
	fns := make([]func(), len(timers))
	for i := range fns {
		fns[i] = func() {
			log = append(log, fmt.Sprintf("timer%d@%v", i, s.Now().Sub(SimEpoch)))
			if rng.Intn(3) == 0 {
				timers[i] = rearm(s, timers[i], ms(20), fns[i])
			}
		}
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			i := rng.Intn(len(timers))
			timers[i] = rearm(s, timers[i], ms(50), fns[i])
		case op < 6:
			if t := timers[rng.Intn(len(timers))]; t != nil {
				t.Stop()
			}
		case op < 8:
			n := step
			if rng.Intn(2) == 0 {
				s.AfterFunc(ms(50), func() { log = append(log, fmt.Sprintf("after%d@%v", n, s.Now().Sub(SimEpoch))) })
			} else {
				s.Schedule(ms(50), func() { log = append(log, fmt.Sprintf("sched%d@%v", n, s.Now().Sub(SimEpoch))) })
			}
		default:
			s.Advance(ms(30))
		}
		log = append(log, fmt.Sprintf("pending=%d", s.Pending()))
	}
	s.Advance(time.Hour)
	return log
}

// TestRearmMatchesStopAndAfterFunc: moving a timer in place fires every
// callback at the same instant and in the same order as stopping it and
// arming a new one, which is what seeded simulations were pinned with.
func TestRearmMatchesStopAndAfterFunc(t *testing.T) {
	stopAndArm := func(s *Sim, t Timer, d time.Duration, f func()) Timer {
		if t != nil {
			t.Stop()
		}
		return s.AfterFunc(d, f)
	}
	inPlace := func(s *Sim, t Timer, d time.Duration, f func()) Timer { return Rearm(s, t, d, f) }
	for seed := int64(1); seed <= 50; seed++ {
		want := rearmWorld(seed, stopAndArm)
		got := rearmWorld(seed, inPlace)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: entry %d is %q, want %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d log entries, want %d", seed, len(got), len(want))
		}
	}
}

// TestRearmPendingAllocatesNothing: while the event waits in the queue (or
// sits there stopped), moving it makes no timer.
func TestRearmPendingAllocatesNothing(t *testing.T) {
	s := NewSim()
	fired := 0
	f := func() { fired++ }
	tm := Rearm(s, nil, time.Second, f)
	d := time.Duration(0)
	if n := testing.AllocsPerRun(100, func() {
		d += time.Millisecond
		if Rearm(s, tm, d, f) != tm {
			t.Fatal("Rearm of a pending event returned a new timer")
		}
	}); n != 0 {
		t.Errorf("Rearm of a pending simulated timer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tm.Stop(); Rearm(s, tm, time.Second, f) }); n != 0 {
		t.Errorf("Rearm of a stopped simulated timer: %v allocs, want 0", n)
	}
	s.Advance(2 * time.Second)
	if fired != 1 {
		t.Fatalf("the moved timer fired %d times, want 1", fired)
	}
	// Fired: its event has left the queue, so Rearm arms afresh.
	if again := Rearm(s, tm, time.Second, f); again == tm {
		t.Error("Rearm of a fired timer returned the spent one")
	}
	s.Advance(2 * time.Second)
	if fired != 2 {
		t.Errorf("after re-arming a fired timer: fired %d times, want 2", fired)
	}

	done := make(chan struct{}, 1)
	var c Clock = Real{}
	rt := c.AfterFunc(time.Hour, func() { done <- struct{}{} })
	defer rt.Stop()
	if n := testing.AllocsPerRun(100, func() { Rearm(c, rt, time.Hour, nil) }); n != 0 {
		t.Errorf("Rearm of a real timer: %v allocs, want 0", n)
	}
	Rearm(c, rt, time.Millisecond, nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed real timer never fired")
	}
}
