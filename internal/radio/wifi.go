package radio

import (
	"sync"
	"time"

	"pogo/internal/energy"
	"pogo/internal/vclock"
)

// Wifi is the simulated Wi-Fi data interface. Unlike the 3G modem it has no
// meaningful tail: the radio draws power only while a transfer is active
// (plus a short association overhead), which is why offloading over Wi-Fi is
// cheap (user 7 in §5.3 relied on it exclusively).
type Wifi struct {
	clk   vclock.Clock
	meter *energy.Meter

	// ActivePower is the draw during a transfer, in watts.
	ActivePower float64
	// ThroughputBps converts bytes to transfer time.
	ThroughputBps float64
	// Overhead is added to every transfer's duration (association, DHCP...).
	Overhead time.Duration

	mu       sync.Mutex
	stats    TrafficStats
	active   int
	txEnd    time.Time
	pending  []transfer
	timerSet bool
}

// NewWifi returns a Wi-Fi interface with typical smartphone parameters.
func NewWifi(clk vclock.Clock, meter *energy.Meter) *Wifi {
	return &Wifi{
		clk:           clk,
		meter:         meter,
		ActivePower:   0.30,
		ThroughputBps: 5e6,
		Overhead:      150 * time.Millisecond,
	}
}

// Transfer moves tx uplink and rx downlink bytes; onDone (may be nil) runs
// on completion.
func (w *Wifi) Transfer(tx, rx int64, onDone func()) {
	if tx < 0 {
		tx = 0
	}
	if rx < 0 {
		rx = 0
	}
	dur := w.Overhead
	if w.ThroughputBps > 0 {
		dur += time.Duration(float64(tx+rx) * 8 / w.ThroughputBps * float64(time.Second))
	}
	w.mu.Lock()
	w.active++
	if w.meter != nil && w.active == 1 {
		w.meter.Set("wifi", w.ActivePower)
	}
	w.mu.Unlock()
	w.clk.AfterFunc(dur, func() {
		w.mu.Lock()
		w.stats.TxBytes += tx
		w.stats.RxBytes += rx
		w.active--
		if w.meter != nil && w.active == 0 {
			w.meter.Set("wifi", 0)
		}
		w.mu.Unlock()
		if onDone != nil {
			onDone()
		}
	})
}
