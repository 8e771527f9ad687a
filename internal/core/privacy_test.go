package core

import (
	"testing"
	"time"

	"pogo/internal/script/scripts"
	"pogo/internal/sensors"
	"pogo/internal/store"
)

// privacyRig builds a rig whose device enforces the given policy.
func privacyRig(t *testing.T, p *Privacy) (*rig, *simDevice) {
	t.Helper()
	r := newRig(t)
	r.sb.Associate("collector", "dev1")
	d := r.addDeviceWithPrivacy("dev1", p)
	return r, d
}

// addDeviceWithPrivacy mirrors addDevice but wires a privacy policy.
func (r *rig) addDeviceWithPrivacy(id string, p *Privacy) *simDevice {
	r.t.Helper()
	d := r.addDevice(id, FlushImmediate, store.NewMemKV(), "")
	// Rebuild the node with privacy (simplest: close and recreate).
	d.node.Close()
	d.port.Close()
	port := r.sb.Port(id, d.conn)
	node, err := NewNode(Config{
		ID: id, Mode: DeviceMode, Clock: r.clk, Messenger: port,
		Device: d.droid, Modem: d.modem, Storage: d.storage,
		FlushPolicy: FlushImmediate, Privacy: p,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	node.Sensors().Register(sensors.NewBatterySensor(node.Sensors(), d.droid))
	node.Sensors().Register(sensors.NewWifiScanSensor(node.Sensors(), d.scanner, sensors.WifiScanConfig{Meter: d.meter}))
	d.node, d.port = node, port
	r.t.Cleanup(node.Close)
	return d
}

func TestPrivacyBlocksHiddenChannel(t *testing.T) {
	p := NewPrivacy()
	p.SetShared(sensors.ChannelBattery, false)
	r, _ := privacyRig(t, p)

	r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	r.col.Deploy("battery.js", scripts.MustSource("battery.js"))
	r.clk.Advance(5 * time.Minute)

	if got := len(r.col.Logs().Lines("battery")); got != 0 {
		t.Errorf("%d battery reports leaked through a hidden channel", got)
	}
}

func TestPrivacyHiddenChannelKeepsSensorOff(t *testing.T) {
	p := NewPrivacy()
	p.SetShared(sensors.ChannelWifiScan, false)
	r, d := privacyRig(t, p)

	r.col.DeployLocal("collect.js", scripts.MustSource("collect.js"))
	r.col.Deploy("scan.js", scripts.MustSource("scan.js"))
	d.scanner.aps = []sensors.AccessPoint{{BSSID: "h1", SSID: "home", RSSI: -60}}

	r.clk.Advance(30 * time.Minute)
	// The sensor must never have sampled: hiding the channel removes the
	// demand entirely (§3.3 + §3.5), saving its energy too.
	if d.scanner.calls != 0 {
		t.Errorf("hidden wifi-scan sensor sampled %d times", d.scanner.calls)
	}
	if got := d.meter.ComponentPower("wifi-scan"); got != 0 {
		t.Errorf("scan radio drawing %v W while hidden", got)
	}

	// Un-hiding starts the pipeline.
	p.SetShared(sensors.ChannelWifiScan, true)
	r.clk.Advance(5 * time.Minute)
	if d.scanner.calls == 0 {
		t.Error("sensor did not start after re-sharing")
	}
}

func TestPrivacyToggleAtRuntime(t *testing.T) {
	p := NewPrivacy()
	r, _ := privacyRig(t, p)
	r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	r.col.Deploy("battery.js", scripts.MustSource("battery.js"))

	r.clk.Advance(3 * time.Minute)
	n1 := len(r.col.Logs().Lines("battery"))
	if n1 == 0 {
		t.Fatal("no reports while shared")
	}

	// The user flips the switch (§3.3: "these settings can be changed at
	// any time from the application interface").
	p.SetShared(sensors.ChannelBattery, false)
	r.clk.Advance(10 * time.Minute)
	n2 := len(r.col.Logs().Lines("battery"))
	if n2 > n1 {
		t.Errorf("reports flowed while hidden: %d → %d", n1, n2)
	}

	p.SetShared(sensors.ChannelBattery, true)
	r.clk.Advance(3 * time.Minute)
	n3 := len(r.col.Logs().Lines("battery"))
	if n3 <= n2 {
		t.Errorf("reports did not resume after re-sharing: %d → %d", n2, n3)
	}
}

func TestPrivacyDefaultsShareEverything(t *testing.T) {
	var p *Privacy
	if !p.shared("anything") {
		t.Error("nil policy must share")
	}
	p2 := NewPrivacy()
	if !p2.shared("battery") {
		t.Error("fresh policy must share")
	}
	p2.SetShared("a", false)
	p2.SetShared("b", false)
	p2.SetShared("a", false) // no change, no duplicate notification
	if got := p2.Hidden(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Hidden = %v", got)
	}
	changes := 0
	p2.onChange(func(string, bool) { changes++ })
	p2.SetShared("a", false) // still hidden: no event
	p2.SetShared("a", true)
	if changes != 1 {
		t.Errorf("changes = %d", changes)
	}
}

func TestScriptUsageAccounting(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	r.col.Deploy("battery.js", scripts.MustSource("battery.js"))
	r.col.Deploy("idle.js", `setDescription('does nothing');`)
	r.clk.Advance(10 * time.Minute)

	usages := d.node.ScriptUsages(DefaultPowerModel())
	if len(usages) != 2 {
		t.Fatalf("usages = %+v", usages)
	}
	// battery.js publishes every minute; idle.js does nothing — the ranking
	// and magnitudes must reflect that.
	if usages[0].Name != "battery.js" {
		t.Errorf("top consumer = %s", usages[0].Name)
	}
	busy, idle := usages[0], usages[1]
	if busy.Publishes < 8 || busy.Steps == 0 || busy.Entries < 8 {
		t.Errorf("battery.js usage = %+v", busy)
	}
	if busy.EstimatedJoules <= idle.EstimatedJoules {
		t.Error("power model ranks idle script above busy one")
	}
	if idle.Publishes != 0 {
		t.Errorf("idle.js published %d", idle.Publishes)
	}
	if idle.Steps == 0 {
		t.Error("idle.js body consumed no steps")
	}

	// Collector-side accounting works too.
	colUsages := r.col.ScriptUsages(DefaultPowerModel())
	if len(colUsages) != 1 || colUsages[0].Name != "battery-collect.js" {
		t.Fatalf("collector usages = %+v", colUsages)
	}
	if colUsages[0].Entries < 8 {
		t.Errorf("collector script entries = %d", colUsages[0].Entries)
	}
}

func TestPowerModelEstimate(t *testing.T) {
	m := DefaultPowerModel()
	if m.estimate(0, 0) != 0 {
		t.Error("zero usage, nonzero estimate")
	}
	if m.estimate(2e6, 10) <= m.estimate(1e6, 10) {
		t.Error("steps not monotone")
	}
	if m.estimate(1e6, 11) <= m.estimate(1e6, 10) {
		t.Error("publishes not monotone")
	}
}
