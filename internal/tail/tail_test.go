package tail

import (
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/obs"
	"pogo/internal/radio"
	"pogo/internal/vclock"
)

type fixture struct {
	clk   *vclock.Sim
	meter *energy.Meter
	dev   *android.Device
	modem *radio.Modem
	det   *Detector
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	dev := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, radio.KPN)
	det := New(dev, modem.Stats, 0)
	return &fixture{clk: clk, meter: meter, dev: dev, modem: modem, det: det}
}

func TestDetectorFiresOnForeignTraffic(t *testing.T) {
	f := newFixture(t)
	var deltas []int64
	f.det.OnTraffic(func(d int64) { deltas = append(deltas, d) })
	f.det.Start()
	f.det.Start() // idempotent

	// Simulate an e-mail check: alarm wakes CPU, transfer happens, and the
	// detector — whose uptime timer was frozen all along — must catch it.
	f.dev.SetAlarm(5*time.Minute, func() {
		f.dev.AcquireWakeLock("email")
		f.modem.Transfer(2048, 12288, func() {
			f.clk.AfterFunc(300*time.Millisecond, func() { f.dev.ReleaseWakeLock("email") })
		})
	})
	f.clk.Advance(10 * time.Minute)

	if f.det.Fires() != 1 {
		t.Fatalf("Fires = %d, want 1; deltas=%v", f.det.Fires(), deltas)
	}
	if len(deltas) != 1 || deltas[0] != 2048+12288 {
		t.Errorf("deltas = %v", deltas)
	}
}

func TestDetectorNeverWakesCPUItself(t *testing.T) {
	f := newFixture(t)
	f.det.Start()
	f.clk.Advance(time.Hour)
	// Without foreign activity, the detector polls only during the initial
	// linger window; uptime is bounded by linger, so at most a couple of
	// polls and the CPU stays asleep.
	if f.dev.Awake() {
		t.Error("CPU awake with only the detector running")
	}
	up := f.dev.Uptime()
	if up > 2*time.Second {
		t.Errorf("Uptime = %v: detector kept CPU awake", up)
	}
	if f.det.Fires() != 0 {
		t.Errorf("Fires = %d with no traffic", f.det.Fires())
	}
}

func TestDetectorCatchesTrafficInsideTail(t *testing.T) {
	// The flush must be possible before the modem leaves DCH: the detector
	// fires within ~1 s of the counters moving, well inside KPN's 6 s DCH
	// tail.
	f := newFixture(t)
	var fireState radio.State
	f.det.OnTraffic(func(int64) { fireState = f.modem.State() })
	f.det.Start()

	f.dev.SetAlarm(time.Minute, func() {
		f.dev.AcquireWakeLock("app")
		f.modem.Transfer(1000, 1000, func() {
			f.clk.AfterFunc(time.Second, func() { f.dev.ReleaseWakeLock("app") })
		})
	})
	f.clk.Advance(5 * time.Minute)
	if f.det.Fires() != 1 {
		t.Fatalf("Fires = %d", f.det.Fires())
	}
	if fireState != radio.DCHTail && fireState != radio.Transmitting {
		t.Errorf("detector fired with modem in %v, want inside the high-power window", fireState)
	}
}

func TestDetectorStop(t *testing.T) {
	f := newFixture(t)
	f.det.Start()
	f.det.Stop()
	f.det.Stop() // idempotent
	f.dev.SetAlarm(time.Minute, func() {
		f.dev.AcquireWakeLock("app")
		f.modem.Transfer(1000, 0, func() { f.dev.ReleaseWakeLock("app") })
	})
	f.clk.Advance(5 * time.Minute)
	if f.det.Fires() != 0 {
		t.Errorf("stopped detector fired %d times", f.det.Fires())
	}
}

func TestDetectorMultipleBursts(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	f.det.Instrument(reg, "phone")
	f.det.Start()
	for i := 1; i <= 3; i++ {
		f.dev.SetAlarm(time.Duration(i)*5*time.Minute, func() {
			f.dev.AcquireWakeLock("email")
			f.modem.Transfer(2048, 12288, func() {
				f.clk.AfterFunc(300*time.Millisecond, func() { f.dev.ReleaseWakeLock("email") })
			})
		})
	}
	f.clk.Advance(20 * time.Minute)
	if f.det.Fires() != 3 {
		t.Errorf("Fires = %d, want 3", f.det.Fires())
	}
	if n := reg.CounterValue("tail_polls_total", obs.L("node", "phone")); n == 0 {
		t.Error("tail_polls_total = 0")
	}
}

func TestDefaultInterval(t *testing.T) {
	f := newFixture(t)
	if f.det.interval != defaultInterval {
		t.Errorf("interval = %v", f.det.interval)
	}
	det2 := New(f.dev, f.modem.Stats, 5*time.Second)
	if det2.interval != 5*time.Second {
		t.Errorf("custom interval = %v", det2.interval)
	}
}
