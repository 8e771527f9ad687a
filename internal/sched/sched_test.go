package sched

import (
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/vclock"
)

func TestSubmitRunsTask(t *testing.T) {
	clk := vclock.NewSim()
	s := New(clk, nil)
	ran := false
	s.Submit("t", func() { ran = true })
	clk.Advance(0)
	if !ran {
		t.Error("task never ran")
	}
}

func TestAfterDelays(t *testing.T) {
	clk := vclock.NewSim()
	s := New(clk, nil)
	var at time.Time
	s.After(10*time.Second, "t", func() { at = clk.Now() })
	clk.Advance(time.Minute)
	if !at.Equal(vclock.SimEpoch.Add(10 * time.Second)) {
		t.Errorf("ran at %v", at)
	}
}

func TestAfterCancel(t *testing.T) {
	clk := vclock.NewSim()
	s := New(clk, nil)
	tm := s.After(time.Second, "t", func() { t.Error("cancelled task ran") })
	tm.Stop()
	clk.Advance(time.Minute)
}

func TestDeviceTaskWakesCPUAndHoldsLock(t *testing.T) {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	dev := android.NewDevice(clk, meter, android.Config{})
	s := New(clk, dev)
	clk.Advance(time.Hour) // device asleep
	if dev.Awake() {
		t.Fatal("setup: device awake")
	}
	var awakeDuring, lockDuring bool
	s.After(time.Minute, "probe", func() {
		awakeDuring = dev.Awake()
		lockDuring = dev.WakeLocksHeld() > 0
	})
	clk.Advance(2 * time.Minute)
	if !awakeDuring {
		t.Error("CPU asleep during scheduled task")
	}
	if !lockDuring {
		t.Error("no wake lock held during task")
	}
	if dev.WakeLocksHeld() != 0 {
		t.Error("wake lock leaked after task")
	}
	clk.Advance(5 * time.Second)
	if dev.Awake() {
		t.Error("device did not go back to sleep after task")
	}
}

func TestEveryPeriodic(t *testing.T) {
	clk := vclock.NewSim()
	s := New(clk, nil)
	count := 0
	stop := s.Every(time.Minute, "tick", func() { count++ })
	clk.Advance(5*time.Minute + time.Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	stop()
	stop() // idempotent
	clk.Advance(time.Hour)
	if count != 5 {
		t.Errorf("count = %d after stop, want 5", count)
	}
}

func TestEveryOnDeviceSamplesThroughSleep(t *testing.T) {
	// The battery sensor scenario: sampling once per minute must work even
	// though the CPU deep-sleeps between samples — Every uses RTC alarms.
	clk := vclock.NewSim()
	dev := android.NewDevice(clk, nil, android.Config{})
	s := New(clk, dev)
	count := 0
	s.Every(time.Minute, "battery", func() { count++ })
	clk.Advance(time.Hour)
	if count != 60 {
		t.Errorf("count = %d, want 60", count)
	}
}

func TestCloseCancelsPending(t *testing.T) {
	clk := vclock.NewSim()
	s := New(clk, nil)
	ran := 0
	s.After(time.Second, "a", func() { ran++ })
	s.After(2*time.Second, "b", func() { ran++ })
	s.Close()
	clk.Advance(time.Minute)
	if ran != 0 {
		t.Errorf("ran = %d after Close", ran)
	}
	// Tasks submitted after Close never run, and arm nothing on the clock
	// that would pin them until they fire.
	s.Submit("late", func() { ran++ })
	s.After(24*time.Hour, "purge", func() { ran++ })
	if n := clk.Pending(); n != 0 {
		t.Errorf("%d clock events armed on a closed scheduler", n)
	}
	clk.Advance(time.Minute)
	if ran != 0 {
		t.Errorf("ran = %d, post-Close submit executed", ran)
	}
}

func TestAccessors(t *testing.T) {
	clk := vclock.NewSim()
	dev := android.NewDevice(clk, nil, android.Config{})
	s := New(clk, dev)
	if s.Clock() != vclock.Clock(clk) || s.Device() != dev {
		t.Error("accessors wrong")
	}
}
