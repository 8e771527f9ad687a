// Package tail implements Pogo's transmission-tail detection (§4.7 of the
// paper).
//
// Sending data over 2G/3G triggers the modem into a high-power state that
// persists long after the transmission ends (Figure 3). Rather than generate
// tails of its own, Pogo detects when *other* applications activate the
// modem and pushes its buffered data out inside their tail.
//
// The detector periodically reads the cellular interface's byte counters and
// fires when they change. Naive 1 s polling with alarms would keep waking
// the CPU; instead the detector sleeps with Thread.sleep semantics
// (Device.UptimeAfterFunc): while the CPU is deep asleep the countdown is
// frozen, so the detector only runs — for free — when some other process has
// already woken the CPU, which is exactly when a transmission may be
// happening (Figure 4).
package tail

import (
	"sync"

	"time"

	"pogo/internal/android"
	"pogo/internal/obs"
	"pogo/internal/radio"
)

// defaultInterval is the paper's polling period: once per second of CPU
// uptime.
const defaultInterval = time.Second

// Detector watches a cellular interface's traffic counters and reports
// transmission activity. The zero value is not usable; construct with New.
type Detector struct {
	dev      *android.Device
	stats    func() radio.TrafficStats
	interval time.Duration

	mu          sync.Mutex
	running     bool
	lastForeign int64
	self        int64
	timer       *android.UptimeTimer
	handlers    []func(deltaBytes int64)
	fires       int

	// Instruments; nil (no-op) until Instrument is called.
	obsPolls      *obs.Counter
	obsFires      *obs.Counter
	obsDiscounted *obs.Counter
}

// Instrument attaches the detector to a metrics registry; node labels the
// metrics. Call before Start.
func (d *Detector) Instrument(reg *obs.Registry, node string) {
	if reg == nil {
		return
	}
	l := obs.L("node", node)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obsPolls = reg.Counter("tail_polls_total", l)
	d.obsFires = reg.Counter("tail_fires_total", l)
	d.obsDiscounted = reg.Counter("tail_discounted_bytes_total", l)
}

// New returns a detector polling stats every interval of CPU uptime.
// interval ≤ 0 uses defaultInterval.
func New(dev *android.Device, stats func() radio.TrafficStats, interval time.Duration) *Detector {
	if interval <= 0 {
		interval = defaultInterval
	}
	return &Detector{dev: dev, stats: stats, interval: interval}
}

// OnTraffic registers fn to run (on the detector's polling context) whenever
// the byte counters moved since the previous poll. deltaBytes is the total
// tx+rx growth observed.
func (d *Detector) OnTraffic(fn func(deltaBytes int64)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers = append(d.handlers, fn)
}

// Start begins the polling loop. Idempotent.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return
	}
	d.running = true
	d.lastForeign = d.stats().Total() - d.self
	d.mu.Unlock()
	d.schedule()
}

// Stop halts the polling loop. Idempotent.
func (d *Detector) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.running = false
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
}

// Discount tells the detector that `bytes` of counter growth (now or soon)
// are Pogo's own traffic — its flushed batches and the acknowledgements
// they provoke. The paper's mechanism reacts to *other* applications'
// transmissions (§4.7); without discounting, Pogo's own acks would
// re-trigger the detector in a self-sustaining loop and it would generate
// exactly the tails it is designed to avoid.
//
// The accounting is monotonic: the detector compares total-minus-self
// against the highest foreign level seen, so a discount registered before
// or after the corresponding bytes hit the interface counters is absorbed
// exactly once either way.
func (d *Detector) Discount(bytes int64) {
	if bytes <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.self += bytes
	d.obsDiscounted.Add(bytes)
}

// Fires returns how many times traffic was detected.
func (d *Detector) Fires() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fires
}

func (d *Detector) schedule() {
	d.mu.Lock()
	if !d.running {
		d.mu.Unlock()
		return
	}
	d.timer = d.dev.UptimeAfterFunc(d.interval, d.poll)
	d.mu.Unlock()
}

func (d *Detector) poll() {
	cur := d.stats().Total()
	d.mu.Lock()
	if !d.running {
		d.mu.Unlock()
		return
	}
	d.obsPolls.Inc()
	foreign := cur - d.self
	delta := foreign - d.lastForeign
	if foreign > d.lastForeign {
		d.lastForeign = foreign
	}
	var handlers []func(int64)
	if delta > 0 {
		d.fires++
		d.obsFires.Inc()
		handlers = make([]func(int64), len(d.handlers))
		copy(handlers, d.handlers)
	}
	d.mu.Unlock()
	for _, fn := range handlers {
		fn(delta)
	}
	d.schedule()
}
