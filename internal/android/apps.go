package android

import (
	"sync"
	"time"

	"pogo/internal/radio"
	"pogo/internal/vclock"
)

// Span is one activity interval recorded by an ActivityLog.
type Span struct {
	Name  string
	Start time.Time
	End   time.Time
}

// ActivityLog records named activity spans; the experiments use it to render
// the Figure 4 timeline (CPU / e-mail / Pogo activity blocks).
type ActivityLog struct {
	mu    sync.Mutex
	spans []Span
	open  map[string]time.Time
}

// NewActivityLog returns an empty log.
func NewActivityLog() *ActivityLog {
	return &ActivityLog{open: make(map[string]time.Time)}
}

// Begin opens a span for name at the given instant. A second Begin for the
// same name before End restarts the span.
func (l *ActivityLog) Begin(name string, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open[name] = at
}

// End closes the open span for name. Without a matching Begin it is a no-op.
func (l *ActivityLog) End(name string, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, ok := l.open[name]
	if !ok {
		return
	}
	delete(l.open, name)
	l.spans = append(l.spans, Span{Name: name, Start: start, End: at})
}

// Spans returns a copy of the closed spans in recording order.
func (l *ActivityLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}

// PeriodicApp models a third-party background application — the e-mail
// client of §5.2 — that wakes the device on an alarm every Interval, holds a
// wake lock while it transfers data over the given link, and goes back to
// sleep. Its transmissions are what Pogo's tail detector piggybacks on.
type PeriodicApp struct {
	Name string
	// Interval between checks (the paper's experiment: 5 minutes).
	Interval time.Duration
	// TxBytes/RxBytes moved per check (an IMAP poll: small up, bigger down).
	TxBytes int64
	RxBytes int64
	// Process is extra wake-lock time after the transfer (parsing mail).
	Process time.Duration

	clk  vclock.Clock
	dev  *Device
	link radio.DataLink
	log  *ActivityLog

	mu      sync.Mutex
	running bool
	alarm   vclock.Timer
	checks  int
}

// NewPeriodicApp returns an e-mail-checker-shaped background app. log may be
// nil.
func NewPeriodicApp(clk vclock.Clock, dev *Device, link radio.DataLink, log *ActivityLog) *PeriodicApp {
	return &PeriodicApp{
		Name:     "email",
		Interval: 5 * time.Minute,
		TxBytes:  2 * 1024,
		RxBytes:  12 * 1024,
		Process:  300 * time.Millisecond,
		clk:      clk,
		dev:      dev,
		link:     link,
		log:      log,
	}
}

// Start schedules the first check one Interval from now.
func (a *PeriodicApp) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return
	}
	a.running = true
	a.scheduleLocked()
}

// Stop cancels future checks; an in-flight check completes normally.
func (a *PeriodicApp) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.running = false
	if a.alarm != nil {
		a.alarm.Stop()
		a.alarm = nil
	}
}

// Checks returns how many checks have started.
func (a *PeriodicApp) Checks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.checks
}

func (a *PeriodicApp) scheduleLocked() {
	a.alarm = a.dev.SetAlarm(a.Interval, a.check)
}

func (a *PeriodicApp) check() {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return
	}
	a.checks++
	a.scheduleLocked()
	a.mu.Unlock()

	lock := a.Name + "-check"
	a.dev.AcquireWakeLock(lock)
	if a.log != nil {
		a.log.Begin(a.Name, a.clk.Now())
	}
	a.link.Transfer(a.TxBytes, a.RxBytes, func() {
		a.clk.AfterFunc(a.Process, func() {
			if a.log != nil {
				a.log.End(a.Name, a.clk.Now())
			}
			a.dev.ReleaseWakeLock(lock)
		})
	})
}
