package android

import (
	"math"
	"testing"
	"time"

	"pogo/internal/energy"
	"pogo/internal/radio"
	"pogo/internal/vclock"
)

func newTestDevice(t *testing.T) (*vclock.Sim, *energy.Meter, *Device) {
	t.Helper()
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	dev := NewDevice(clk, meter, Config{})
	return clk, meter, dev
}

func TestDeviceSleepsAfterLinger(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	if !dev.Awake() {
		t.Fatal("device not awake after boot")
	}
	clk.Advance(2 * time.Second)
	if dev.Awake() {
		t.Error("device still awake past linger with no wake locks")
	}
}

func TestWakeLockKeepsAwake(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	dev.AcquireWakeLock("app")
	clk.Advance(time.Hour)
	if !dev.Awake() {
		t.Fatal("device slept while wake lock held")
	}
	dev.ReleaseWakeLock("app")
	clk.Advance(2 * time.Second)
	if dev.Awake() {
		t.Error("device awake after lock release + linger")
	}
}

func TestWakeLockRefCounting(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	dev.AcquireWakeLock("a")
	dev.AcquireWakeLock("a")
	dev.AcquireWakeLock("b")
	if dev.WakeLocksHeld() != 2 {
		t.Errorf("WakeLocksHeld = %d, want 2 distinct", dev.WakeLocksHeld())
	}
	dev.ReleaseWakeLock("a")
	clk.Advance(time.Minute)
	if !dev.Awake() {
		t.Error("slept while lock a still has one holder")
	}
	dev.ReleaseWakeLock("a")
	dev.ReleaseWakeLock("b")
	clk.Advance(2 * time.Second)
	if dev.Awake() {
		t.Error("awake after all locks released")
	}
}

func TestAlarmWakesCPU(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	clk.Advance(5 * time.Second) // device asleep now
	fired := false
	wasAwake := false
	dev.SetAlarm(time.Minute, func() {
		fired = true
		wasAwake = dev.Awake()
	})
	clk.Advance(2 * time.Minute)
	if !fired {
		t.Fatal("alarm never fired")
	}
	if !wasAwake {
		t.Error("CPU not awake during alarm delivery")
	}
	if dev.Awake() {
		t.Error("device still awake long after alarm linger")
	}
}

func TestUptimeExcludesSleep(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	// Awake for linger (1.2 s) then asleep.
	clk.Advance(time.Hour)
	up := dev.Uptime()
	if up > 2*time.Second || up < time.Second {
		t.Errorf("Uptime = %v, want ≈1.2s (linger only)", up)
	}
	dev.AcquireWakeLock("x")
	clk.Advance(10 * time.Second)
	got := dev.Uptime() - up
	if math.Abs(got.Seconds()-10) > 0.001 {
		t.Errorf("Uptime delta = %v, want 10s", got)
	}
}

func TestUptimeTimerFreezesDuringSleep(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	var firedAt time.Time
	// 5 s of awake time needed; the device sleeps after 1.2 s, so the timer
	// must NOT fire until something else wakes the CPU for long enough.
	dev.UptimeAfterFunc(5*time.Second, func() { firedAt = clk.Now() })
	clk.Advance(time.Hour)
	if !firedAt.IsZero() {
		t.Fatalf("uptime timer fired at %v while CPU mostly asleep", firedAt)
	}
	// Hold the CPU awake; the timer already consumed ~1.2 s of its budget.
	dev.AcquireWakeLock("x")
	start := clk.Now()
	clk.Advance(10 * time.Second)
	if firedAt.IsZero() {
		t.Fatal("uptime timer never fired while awake")
	}
	elapsed := firedAt.Sub(start)
	if elapsed > 4*time.Second || elapsed < 3*time.Second {
		t.Errorf("fired after %v awake, want ≈3.8s (5s minus banked linger)", elapsed)
	}
}

func TestUptimeTimerSleepLoopSynchronizesWithAlarms(t *testing.T) {
	// The §4.7 scenario: Pogo polls every 1 s of uptime; the CPU sleeps;
	// an e-mail alarm at t=300 s wakes it; Pogo's frozen timer then fires
	// within the email's awake window.
	clk, _, dev := newTestDevice(t)
	var pogoFires []time.Time
	var tick func()
	tick = func() {
		pogoFires = append(pogoFires, clk.Now())
		dev.UptimeAfterFunc(time.Second, tick)
	}
	dev.UptimeAfterFunc(time.Second, tick)

	alarmAt := clk.Now().Add(5 * time.Minute)
	dev.SetAlarm(5*time.Minute, func() {
		dev.AcquireWakeLock("email")
		clk.AfterFunc(3*time.Second, func() { dev.ReleaseWakeLock("email") })
	})
	clk.Advance(10 * time.Minute)

	if len(pogoFires) == 0 {
		t.Fatal("pogo loop never ran")
	}
	// Some fires happen in the initial linger window; at least two must land
	// inside the email window [alarmAt, alarmAt+4.2s].
	inWindow := 0
	for _, at := range pogoFires {
		if !at.Before(alarmAt) && at.Before(alarmAt.Add(4200*time.Millisecond)) {
			inWindow++
		}
	}
	if inWindow < 2 {
		t.Errorf("only %d pogo polls inside email awake window; fires=%v", inWindow, pogoFires)
	}
	// And none in the dead of sleep, e.g. minute 2-4.
	for _, at := range pogoFires {
		d := at.Sub(vclock.SimEpoch)
		if d > 2*time.Minute && d < 4*time.Minute {
			t.Errorf("pogo poll at %v while CPU deep-asleep", d)
		}
	}
}

func TestUptimeTimerStop(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	fired := false
	tm := dev.UptimeAfterFunc(500*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop = false")
	}
	if tm.Stop() {
		t.Error("second Stop = true")
	}
	clk.Advance(time.Minute)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestUptimeTimerFiringDoesNotExtendAwake(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	// Chain of 0.3 s uptime timers: without wake locks the CPU must still
	// sleep at ~1.2 s; a thread in a sleep loop cannot keep it awake.
	var tick func()
	tick = func() { dev.UptimeAfterFunc(300*time.Millisecond, tick) }
	dev.UptimeAfterFunc(300*time.Millisecond, tick)
	clk.Advance(10 * time.Second)
	if dev.Awake() {
		t.Error("uptime-timer loop kept CPU awake")
	}
}

func TestCPUStateListener(t *testing.T) {
	clk, _, dev := newTestDevice(t)
	var changes []bool
	dev.OnCPUStateChange(func(awake bool, _ time.Time) { changes = append(changes, awake) })
	clk.Advance(5 * time.Second) // sleep
	dev.AcquireWakeLock("x")     // wake
	dev.ReleaseWakeLock("x")
	clk.Advance(5 * time.Second) // sleep
	want := []bool{false, true, false}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v", changes)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Errorf("change %d = %v", i, changes[i])
		}
	}
}

func TestCPUEnergyAccounting(t *testing.T) {
	clk, meter, dev := newTestDevice(t)
	clk.Advance(time.Hour)
	// Awake 1.2 s @ (0.15+0.01) W, asleep 3598.8 s @ 0.01 W.
	want := 1.2*0.16 + 3598.8*0.01
	if got := meter.Energy(); math.Abs(got-want) > 0.01 {
		t.Errorf("Energy = %v, want ≈%v", got, want)
	}
	_ = dev
}

func TestBatteryModel(t *testing.T) {
	clk, meter, dev := newTestDevice(t)
	if v := dev.BatteryVoltage(); math.Abs(v-4.20) > 0.01 {
		t.Errorf("fresh voltage = %v", v)
	}
	if l := dev.BatteryLevel(); math.Abs(l-1.0) > 0.001 {
		t.Errorf("fresh level = %v", l)
	}
	meter.Set("drain", 10) // 10 W — drains fast
	clk.Advance(time.Hour) // 36000 J > capacity
	if v := dev.BatteryVoltage(); math.Abs(v-3.50) > 0.01 {
		t.Errorf("drained voltage = %v", v)
	}
	if l := dev.BatteryLevel(); l != 0 {
		t.Errorf("drained level = %v", l)
	}
	noMeter := NewDevice(clk, nil, Config{})
	if noMeter.BatteryVoltage() != 4.05 || noMeter.BatteryLevel() != 1 {
		t.Error("nil-meter battery defaults wrong")
	}
}

func TestPeriodicAppChecksAndStops(t *testing.T) {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	dev := NewDevice(clk, meter, Config{})
	modem := radio.NewModem(clk, meter, radio.KPN)
	log := NewActivityLog()
	app := NewPeriodicApp(clk, dev, modem, log)
	app.Start()
	app.Start() // idempotent
	clk.Advance(26 * time.Minute)
	if got := app.Checks(); got != 5 {
		t.Errorf("Checks = %d, want 5 in 26 min at 5-min interval", got)
	}
	spans := log.SpansFor("email")
	if len(spans) != 5 {
		t.Errorf("email spans = %d", len(spans))
	}
	for _, s := range spans {
		if !s.End.After(s.Start) {
			t.Errorf("span %+v not positive", s)
		}
	}
	if modem.Stats().RxBytes != 5*12*1024 {
		t.Errorf("RxBytes = %d", modem.Stats().RxBytes)
	}
	app.Stop()
	clk.Advance(time.Hour)
	if app.Checks() != 5 {
		t.Error("app kept checking after Stop")
	}
	// Wake locks must all be released; CPU asleep.
	if dev.Awake() || dev.WakeLocksHeld() != 0 {
		t.Error("app leaked wake locks")
	}
}

func TestActivityLog(t *testing.T) {
	l := NewActivityLog()
	t0 := vclock.SimEpoch
	l.Begin("x", t0)
	l.End("x", t0.Add(time.Second))
	l.End("y", t0) // no begin: no-op
	spans := l.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Name != "x" || spans[0].End.Sub(spans[0].Start) != time.Second {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if got := l.SpansFor("x"); len(got) != 1 {
		t.Errorf("SpansFor(x) = %+v", got)
	}
}

func TestDeviceConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BasePower != 0.010 || cfg.CPUAwakePower != 0.150 ||
		cfg.Linger != 1200*time.Millisecond || cfg.BatteryCapacityJoules != 23328 {
		t.Errorf("defaults = %+v", cfg)
	}
	custom := Config{BasePower: 1, CPUAwakePower: 2, Linger: time.Second, BatteryCapacityJoules: 3}.withDefaults()
	if custom.BasePower != 1 || custom.CPUAwakePower != 2 || custom.Linger != time.Second || custom.BatteryCapacityJoules != 3 {
		t.Errorf("custom overridden: %+v", custom)
	}
}
