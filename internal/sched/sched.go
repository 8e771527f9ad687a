// Package sched implements Pogo's task scheduler (§4.5 of the paper).
//
// The scheduler abstracts away the complexities of setting alarms and
// managing wake locks: components submit (optionally delayed) tasks; on a
// phone the scheduler sets an RTC wake-up alarm so the task runs even if the
// CPU is deep asleep, and holds a wake lock for the duration of the task so
// asynchronous work (a Wi-Fi scan completing, a network write) is not cut
// short. When there are no tasks to execute the CPU can safely go to sleep.
//
// On collector nodes (desktop PCs) there is no Device and tasks are simply
// timed callbacks.
//
// # Where a task runs
//
// Every task is submitted under a name ("script-sink", "flush-now", a sensor
// channel). On the real clock each name has a lane: a FIFO of due tasks
// drained by one goroutine that is started by the name's first task and lives
// until Close. So tasks of one name run one at a time, in the order they
// became due — for zero-delay Submits, the order Submit was called in — and
// tasks of different names run concurrently: a flush blocked on a socket
// write stalls neither a script nor a timeout. A zero-delay Submit arms no
// timer and starts no goroutine, and the lane's goroutine keeps the stack the
// script interpreter grew, which a goroutine per task had to regrow (and
// copy) for every message. A delayed task keeps its clock timer or RTC alarm;
// when it fires, the callback only takes the wake lock and puts the task on
// its lane. There is no pool size to choose: the number of lanes is the
// number of names in use, a handful per node, each an idle goroutine when it
// has nothing to do.
//
// On a simulated clock there are no lanes and no goroutines: a task runs
// where the clock fires it, on the goroutine that advances the simulation, in
// (due time, submission) order — which is what makes simulated runs
// reproducible bit for bit.
package sched

import (
	"sync"
	"time"

	"pogo/internal/android"
	"pogo/internal/obs"
	"pogo/internal/vclock"
)

// wakeLock is the one wake lock every task holds, from the moment it is due
// until it has finished. Device wake locks are counted, so overlapping tasks
// share the name.
const wakeLock = "sched"

// Scheduler runs submitted tasks, waking the device for them when one is
// attached. The zero value is not usable; construct with New.
type Scheduler struct {
	clk  vclock.Clock
	dev  *android.Device // nil on collector nodes
	wall bool            // clk is the system clock: due tasks go to lanes

	mu     sync.Mutex
	closed bool
	nextID int64
	timers map[int64]vclock.Timer // armed and not yet fired
	lanes  map[string]*lane       // by task name; nil until the first real-clock task

	// Instruments; nil (no-op) until Instrument is called.
	scheduled *obs.Counter
	ran       *obs.Counter
	wakeups   *obs.Counter
	ledger    *obs.Ledger
	entity    string
	owner     func(taskName string) string
}

// lane is the FIFO of one task name on the real clock and the goroutine that
// drains it. q[head:] are the tasks due and not yet started.
type lane struct {
	ready sync.Cond // on Scheduler.mu: q gained a task, or the scheduler closed
	q     []func()
	head  int
}

func (l *lane) push(task func()) {
	// Popped slots are reclaimed once they outnumber the live ones, so a lane
	// that never runs dry copies each task at most once more and the slice
	// stays proportional to the backlog.
	if l.head > len(l.q)/2 {
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, task)
}

func (l *lane) pop() func() {
	task := l.q[l.head]
	l.q[l.head] = nil
	l.head++
	return task
}

// stoppedTimer is the Timer of a task with nothing left to cancel: it went
// straight to its lane, or the scheduler was already closed.
type stoppedTimer struct{}

func (stoppedTimer) Stop() bool { return false }

// Instrument attaches the scheduler to a metrics registry; node labels the
// metrics and entity is the ledger device axis that CPU wakeups are charged
// to (usually the node ID). Call before tasks are submitted.
func (s *Scheduler) Instrument(reg *obs.Registry, node, entity string) {
	if reg == nil {
		return
	}
	l := obs.L("node", node)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scheduled = reg.Counter("sched_tasks_scheduled_total", l)
	s.ran = reg.Counter("sched_tasks_run_total", l)
	s.wakeups = reg.Counter("sched_cpu_wakeups_total", l)
	s.ledger = reg.Ledger()
	s.entity = entity
}

// SetTaskOwner installs the task-name → script-name mapping used to charge
// CPU wakeups to the script that caused them. The scheduler itself knows
// nothing about task naming conventions; core installs one that strips its
// "script-"/"timeout-" prefixes. Tasks that map to "" charge the device
// entity (middleware overhead). Call before tasks are submitted.
func (s *Scheduler) SetTaskOwner(fn func(taskName string) string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owner = fn
}

// chargeWakeup books one CPU wakeup: the device will stay awake for at least
// a linger window on behalf of this task, so those milliseconds are
// attributed to the task's owning script.
func (s *Scheduler) chargeWakeup(name string) {
	s.wakeups.Inc()
	if s.ledger == nil {
		return
	}
	script := ""
	if s.owner != nil {
		script = s.owner(name)
	}
	s.ledger.Meter(s.entity, script, "").AddWake(s.dev.Linger().Milliseconds())
}

// New returns a scheduler. dev may be nil (collector mode).
func New(clk vclock.Clock, dev *android.Device) *Scheduler {
	_, wall := clk.(vclock.Real)
	return &Scheduler{clk: clk, dev: dev, wall: wall, timers: make(map[int64]vclock.Timer)}
}

// Clock returns the scheduler's clock.
func (s *Scheduler) Clock() vclock.Clock { return s.clk }

// Submit runs task as soon as possible (at the current instant in simulated
// time), holding a wake lock around it on a device.
func (s *Scheduler) Submit(name string, task func()) {
	s.After(0, name, task)
}

// After schedules task to run after delay. On a device the underlying timer
// is an RTC wake-up alarm, so the task runs on schedule even if the CPU is
// asleep; a wake lock is held from then until the task has finished. The
// returned Timer cancels the task if its delay has not yet elapsed.
func (s *Scheduler) After(delay time.Duration, name string, task func()) vclock.Timer {
	s.scheduled.Inc()
	if s.wall && delay <= 0 {
		// Nothing to wait for: the task is due on the caller, which is what
		// puts one name's Submits on its lane in call order.
		s.due(0, name, task, s.dev != nil && !s.dev.Awake())
		return stoppedTimer{}
	}
	// The lock is held across arming so that a timer firing at once finds
	// itself in s.timers, and a closed scheduler arms nothing.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return stoppedTimer{}
	}
	s.nextID++
	id := s.nextID
	var tm vclock.Timer
	if s.dev != nil {
		tm = s.dev.SetAlarmInfo(delay, func(wokeCPU bool) { s.due(id, name, task, wokeCPU) })
	} else {
		tm = s.clk.AfterFunc(delay, func() { s.due(id, name, task, false) })
	}
	s.timers[id] = tm
	return tm
}

// due takes over a task whose time has come: on the goroutine the clock fired
// timer id on, or for a zero-delay task on the real clock (id 0) on the
// submitter. On the real clock the task goes to its lane; otherwise it runs
// here.
func (s *Scheduler) due(id int64, name string, task func(), wokeCPU bool) {
	if wokeCPU {
		s.chargeWakeup(name)
	}
	if s.dev != nil {
		// Taken here and not where the task starts, so the CPU cannot fall
		// asleep while the task waits on its lane; and before s.mu, because
		// CPU-state listeners run inside.
		s.dev.AcquireWakeLock(wakeLock)
	}
	s.mu.Lock()
	delete(s.timers, id)
	closed := s.closed
	if s.wall && !closed {
		s.post(name, task)
	}
	s.mu.Unlock()
	switch {
	case closed:
		s.releaseWakeLock()
	case !s.wall:
		s.run(task)
	}
}

// post appends a due task to its name's lane, starting the lane with its
// first task. Caller holds s.mu.
func (s *Scheduler) post(name string, task func()) {
	l := s.lanes[name]
	if l == nil {
		l = &lane{}
		l.ready.L = &s.mu
		if s.lanes == nil {
			s.lanes = make(map[string]*lane)
		}
		s.lanes[name] = l
		go s.drain(l)
	}
	l.push(task)
	l.ready.Signal()
}

// drain is a lane's goroutine: it runs the lane's tasks one at a time, in
// order, until the scheduler closes.
func (s *Scheduler) drain(l *lane) {
	for {
		s.mu.Lock()
		for l.head == len(l.q) && !s.closed {
			l.ready.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		task := l.pop()
		s.mu.Unlock()
		s.run(task)
	}
}

// run executes a due task and drops the wake lock taken when it became due.
func (s *Scheduler) run(task func()) {
	defer s.releaseWakeLock()
	s.ran.Inc()
	task()
}

func (s *Scheduler) releaseWakeLock() {
	if s.dev != nil {
		s.dev.ReleaseWakeLock(wakeLock)
	}
}

// Every schedules task at a fixed period until the returned stop function is
// called (or the scheduler closes). The first run happens one period from
// now.
func (s *Scheduler) Every(period time.Duration, name string, task func()) (stop func()) {
	var (
		mu      sync.Mutex
		stopped bool
		cur     vclock.Timer
	)
	var tick func()
	tick = func() {
		mu.Lock()
		if stopped {
			mu.Unlock()
			return
		}
		cur = s.After(period, name, tick)
		mu.Unlock()
		task()
	}
	mu.Lock()
	cur = s.After(period, name, tick)
	mu.Unlock()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		if cur != nil {
			cur.Stop()
		}
	}
}

// Close cancels all pending tasks and rejects future ones: armed timers are
// stopped and tasks waiting on a lane are dropped. A task already running is
// not waited for; its lane's goroutine exits when it returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	timers, lanes := s.timers, s.lanes
	s.timers, s.lanes = nil, nil
	dropped := 0
	for _, l := range lanes {
		dropped += len(l.q) - l.head
		l.q, l.head = nil, 0
		l.ready.Signal()
	}
	s.mu.Unlock()
	for _, tm := range timers {
		tm.Stop()
	}
	for ; dropped > 0; dropped-- {
		s.releaseWakeLock()
	}
}
