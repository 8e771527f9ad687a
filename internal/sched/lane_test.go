package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pogo/internal/alloctest"
	"pogo/internal/android"
	"pogo/internal/vclock"
)

// The scheduler on the system clock: lanes. Every test closes its scheduler
// and then requires the goroutine count to be back where the test found it,
// so a lane goroutine that outlives Close fails whichever test leaked it.

const laneTestTimeout = 10 * time.Second

func newReal(t *testing.T, dev *android.Device) *Scheduler {
	t.Helper()
	baseline := runtime.NumGoroutine()
	s := New(vclock.Real{}, dev)
	t.Cleanup(func() {
		s.Close()
		if dev != nil {
			// An awake device has a linger timer pending, whose callback
			// would show up as a goroutine in the next test.
			eventually(t, "device asleep", func() bool { return !dev.Awake() })
		}
		eventually(t, "goroutines back to baseline after Close", func() bool {
			return runtime.NumGoroutine() <= baseline
		})
	})
	return s
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(laneTestTimeout); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for: %s", what)
		}
	}
}

func wait(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(laneTestTimeout):
		t.Fatalf("timed out waiting for: %s", what)
	}
}

// queued reports how many tasks are due on name's lane and not yet started.
func (s *Scheduler) queued(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.lanes[name]; l != nil {
		return len(l.q) - l.head
	}
	return 0
}

func TestLaneRunsOneNameInSubmissionOrder(t *testing.T) {
	const n = 10000
	s := newReal(t, nil)
	warm := make(chan struct{})
	s.Submit("script-sink", func() { close(warm) })
	wait(t, "first task", warm)
	goroutines := runtime.NumGoroutine() // the lane exists from here on

	// order is written without a lock: tasks of one name never overlap, and
	// the race detector holds the scheduler to that.
	var order []int
	var active atomic.Int32
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		s.Submit("script-sink", func() {
			if active.Add(1) != 1 {
				t.Error("two tasks of one name ran at once")
			}
			order = append(order, i)
			active.Add(-1)
			if i == n-1 {
				close(done)
			}
		})
		if g := runtime.NumGoroutine(); g > goroutines {
			t.Fatalf("submit %d: %d goroutines, %d before the first: Submit started one", i, g, goroutines)
		}
	}
	wait(t, "last task", done)
	if len(order) != n {
		t.Fatalf("%d tasks ran, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran in position %d", got, i)
		}
	}
}

// TestSubmitHopAllocatesOnlyItsTask: on the system clock, submitting to a
// lane that is already running and waiting for the task to start costs the
// task — here the op's closure, 1 alloc and 24 B — and nothing of the
// scheduler's; core submits tasks it built once. A bytes figure fails only
// when it grows by more than 15 % and more than 64 B.
func TestSubmitHopAllocatesOnlyItsTask(t *testing.T) {
	op := submitHop(t, newReal(t, nil))
	if n := testing.AllocsPerRun(1000, op); n != 1 {
		t.Errorf("Submit to a running lane: %v allocs, want 1 (the task)", n)
	}
	if b := alloctest.BytesPerRun(1000, op); b > 24+64 {
		t.Errorf("Submit to a running lane: %v B, ceiling %d", b, 24+64)
	}
}

func BenchmarkSubmitHop(b *testing.B) {
	s := New(vclock.Real{}, nil)
	defer s.Close()
	op := submitHop(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// submitHop starts one name's lane on s and returns the op that
// TestSubmitHopAllocatesOnlyItsTask pins and BenchmarkSubmitHop times: the
// hop every message takes into a script and into the flush, Submit to that
// name and wait for the task to start.
func submitHop(tb testing.TB, s *Scheduler) func() {
	started := make(chan int)
	s.Submit("bench", func() { started <- 0 })
	<-started
	i := 0
	return func() {
		i++
		n := i
		s.Submit("bench", func() { started <- n })
		if got := <-started; got != n {
			tb.Fatalf("task %d started when %d was submitted", got, n)
		}
	}
}

func TestLaneBacklogStaysCompact(t *testing.T) {
	// A lane whose producer stays ahead never runs dry; its slice must follow
	// the backlog, not the number of tasks ever submitted, and stay in order
	// while popped slots are reclaimed.
	var l lane
	pushed, last := 0, -1
	push := func() {
		i := pushed
		pushed++
		l.push(func() { last = i })
	}
	for i := 0; i < 10; i++ {
		push()
	}
	for i := 0; i < 100000; i++ {
		push()
		l.pop()()
		if last != i {
			t.Fatalf("pop %d returned task %d", i, last)
		}
	}
	if backlog := len(l.q) - l.head; backlog != 10 || cap(l.q) > 64 {
		t.Errorf("backlog %d in a slice of cap %d", backlog, cap(l.q))
	}
}

func TestBlockedLaneDoesNotDelayAnother(t *testing.T) {
	s := newReal(t, nil)
	started, release := make(chan struct{}), make(chan struct{})
	s.Submit("flush-now", func() { close(started); <-release })
	wait(t, "blocking task to start", started)
	ran := make(chan struct{})
	s.Submit("script-sink", func() { close(ran) })
	wait(t, "task on the other lane", ran)
	close(release)
}

func TestTaskSubmitsToItsOwnLane(t *testing.T) {
	s := newReal(t, nil)
	var order []string
	done := make(chan struct{})
	s.Submit("script-a", func() {
		s.Submit("script-a", func() {
			order = append(order, "inner")
			close(done)
		})
		order = append(order, "outer")
	})
	wait(t, "task submitted from its own lane", done)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("order = %v, want [outer inner]", order)
	}
}

func TestDelayedTaskRunsOnItsLane(t *testing.T) {
	s := newReal(t, nil)
	started, release := make(chan struct{}), make(chan struct{})
	s.Submit("timeout-a", func() { close(started); <-release })
	wait(t, "blocking task to start", started)

	var ran atomic.Bool
	done := make(chan struct{})
	s.After(time.Millisecond, "timeout-a", func() { ran.Store(true); close(done) })
	eventually(t, "timer to fire and queue its task", func() bool { return s.queued("timeout-a") == 1 })
	if ran.Load() {
		t.Error("delayed task ran beside the task its lane was busy with")
	}
	close(release)
	wait(t, "delayed task", done)
}

func TestStopBeforeFiringPreventsTask(t *testing.T) {
	s := newReal(t, nil)
	tm := s.After(time.Hour, "timeout-a", func() { t.Error("stopped task ran") })
	if !tm.Stop() {
		t.Error("Stop on an unfired timer reported false")
	}
	if s.queued("timeout-a") != 0 {
		t.Error("stopped task reached its lane")
	}
}

func TestDeviceWakeLockHeldFromAlarmToTaskEnd(t *testing.T) {
	dev := android.NewDevice(vclock.Real{}, nil, android.Config{Linger: time.Millisecond})
	s := newReal(t, dev)
	eventually(t, "device to fall asleep", func() bool { return !dev.Awake() })

	// With s.mu held the alarm callback can take the wake lock but cannot
	// hand the task to its lane: the lock is seen held before the task starts.
	var lockedDuring, awakeDuring bool
	done := make(chan struct{})
	s.After(50*time.Millisecond, "probe", func() {
		lockedDuring, awakeDuring = dev.WakeLocksHeld() > 0, dev.Awake()
		close(done)
	})
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		eventually(t, "alarm to take the wake lock", func() bool { return dev.WakeLocksHeld() > 0 })
		if len(s.lanes) != 0 {
			t.Error("task reached a lane while the scheduler was locked")
		}
	}()

	wait(t, "alarm task", done)
	if !lockedDuring || !awakeDuring {
		t.Errorf("during task: wake lock held %v, CPU awake %v", lockedDuring, awakeDuring)
	}
	eventually(t, "wake lock released after the task", func() bool { return dev.WakeLocksHeld() == 0 })
	eventually(t, "device to sleep again", func() bool { return !dev.Awake() })

	// A zero-delay Submit on a sleeping phone wakes it for the task too.
	done = make(chan struct{})
	s.Submit("probe", func() {
		lockedDuring, awakeDuring = dev.WakeLocksHeld() > 0, dev.Awake()
		close(done)
	})
	wait(t, "submitted task", done)
	if !lockedDuring || !awakeDuring {
		t.Errorf("during submitted task: wake lock held %v, CPU awake %v", lockedDuring, awakeDuring)
	}
	eventually(t, "wake lock released after the submitted task", func() bool { return dev.WakeLocksHeld() == 0 })
}

func TestCloseDropsQueuedTasks(t *testing.T) {
	dev := android.NewDevice(vclock.Real{}, nil, android.Config{Linger: time.Millisecond})
	s := newReal(t, dev)
	started, release := make(chan struct{}), make(chan struct{})
	s.Submit("script-a", func() { close(started); <-release })
	wait(t, "blocking task to start", started)
	for i := 0; i < 100; i++ {
		s.Submit("script-a", func() { t.Error("task queued before Close ran after it") })
	}
	idle := make(chan struct{})
	s.Submit("script-b", func() { close(idle) }) // a second, idle lane to shut down
	wait(t, "task on the idle lane", idle)
	s.After(time.Hour, "timeout-a", func() { t.Error("task armed before Close ran after it") })

	s.Close()
	s.Submit("script-a", func() { t.Error("task submitted after Close ran") })
	if tm := s.After(time.Millisecond, "script-b", func() { t.Error("task scheduled after Close ran") }); tm.Stop() {
		t.Error("After on a closed scheduler armed a timer")
	}
	close(release)
	// The running task keeps its wake lock until it returns; the hundred
	// dropped ones gave theirs back in Close.
	eventually(t, "every wake lock released", func() bool { return dev.WakeLocksHeld() == 0 })
	s.Close() // idempotent
}
