package sensors

import (
	"bytes"
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/pubsub"
	"pogo/internal/sched"
	"pogo/internal/vclock"
)

type fixture struct {
	clk   *vclock.Sim
	meter *energy.Meter
	dev   *android.Device
	mgr   *Manager
	b     *pubsub.Broker
}

func newFixture(t *testing.T, withDevice bool) *fixture {
	t.Helper()
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	var dev *android.Device
	if withDevice {
		dev = android.NewDevice(clk, meter, android.Config{})
	}
	mgr := NewManager(sched.New(clk, dev))
	b := pubsub.New()
	mgr.AddBroker(b)
	return &fixture{clk: clk, meter: meter, dev: dev, mgr: mgr, b: b}
}

// instrument attaches the fixture's broker to a registry, whose publish
// counter books every reading the sensors publish.
func (f *fixture) instrument() *obs.Registry {
	reg := obs.NewRegistry()
	f.b.Instrument(reg, f.clk.Now, "n", "n")
	return reg
}

// TestReadingEncodedOnce: a reading reaches every attached broker, in
// attachment order, as the same encoded bytes Publish would deliver, and
// encoding it is the one allocation, however many brokers listen.
func TestReadingEncodedOnce(t *testing.T) {
	f := newFixture(t, true)
	brokers := []*pubsub.Broker{f.b, pubsub.New(), pubsub.New()}
	var got []msg.Raw
	for _, b := range brokers[1:] {
		f.mgr.AddBroker(b)
	}
	for _, b := range brokers {
		b.Subscribe(ChannelBattery, nil, func(ev pubsub.Event) { got = append(got, ev.Message) })
	}
	reading := msg.Map{"voltage": 4.1, "charge": 0.8, "timestamp": 1338508800000.0}
	f.mgr.publish(ChannelBattery, reading)
	want, err := msg.Encode(reading)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != got[1] || got[1] != got[2] || !bytes.Equal(got[0].Bytes(), want.Bytes()) {
		t.Fatalf("the brokers delivered %v, want one encoding %x three times", got, want.Bytes())
	}
	got = got[:0:3]
	if allocs := testing.AllocsPerRun(100, func() {
		got = got[:0]
		f.mgr.publish(ChannelBattery, reading)
	}); allocs != 1 {
		t.Errorf("one reading to three brokers: %.1f allocs, want 1", allocs)
	}
}

func TestBatterySensorSamplesOnDemand(t *testing.T) {
	f := newFixture(t, true)
	f.mgr.Register(NewBatterySensor(f.mgr, f.dev))

	var got []msg.Map
	f.b.Subscribe(ChannelBattery, nil, func(ev pubsub.Event) { got = append(got, ev.Message.Map()) })
	f.clk.Advance(5*time.Minute + time.Second)
	if len(got) != 5 {
		t.Fatalf("samples = %d, want 5 at default 1/min", len(got))
	}
	if _, ok := got[0]["voltage"].(float64); !ok {
		t.Errorf("message = %v", got[0])
	}
	if _, ok := got[0]["timestamp"].(float64); !ok {
		t.Errorf("missing timestamp: %v", got[0])
	}
}

func TestSensorOffWithoutSubscribers(t *testing.T) {
	f := newFixture(t, true)
	reg := f.instrument()
	s := NewBatterySensor(f.mgr, f.dev)
	f.mgr.Register(s)
	f.clk.Advance(10 * time.Minute)
	core := s.(*batterySensor)
	if core.Active() {
		t.Error("sensor active without subscribers")
	}
	if n := reg.CounterValue("pubsub_publishes_total", obs.L("node", "n")); n != 0 {
		t.Errorf("%d readings published without demand", n)
	}
	// Energy check: an idle sensor costs nothing beyond device baseline.
	base := 0.010*600 + 1.2*0.2 // base power + boot linger cpu
	if e := f.meter.Energy(); e > base+0.1 {
		t.Errorf("Energy = %v J with idle sensor", e)
	}
}

func TestSensorStopsWhenSubscriptionReleased(t *testing.T) {
	f := newFixture(t, true)
	s := NewBatterySensor(f.mgr, f.dev)
	f.mgr.Register(s)
	sub := f.b.Subscribe(ChannelBattery, nil, func(pubsub.Event) {})
	if !s.(*batterySensor).Active() {
		t.Fatal("sensor not activated by subscription")
	}
	sub.Release()
	if s.(*batterySensor).Active() {
		t.Error("sensor still active after release")
	}
	sub.Renew()
	if !s.(*batterySensor).Active() {
		t.Error("sensor not reactivated by renew")
	}
}

func TestIntervalParameterHonored(t *testing.T) {
	f := newFixture(t, true)
	s := NewBatterySensor(f.mgr, f.dev)
	f.mgr.Register(s)
	count := 0
	f.b.Subscribe(ChannelBattery, msg.Map{"interval": 10000.0}, func(pubsub.Event) { count++ })
	f.clk.Advance(time.Minute + time.Second)
	if count != 6 {
		t.Errorf("count = %d, want 6 at 10s interval", count)
	}
}

func TestTwoSubscribersShareFastestSchedule(t *testing.T) {
	// §3.5: two scripts requesting different rates → scan at the highest
	// frequency, one shared schedule.
	f := newFixture(t, true)
	reg := f.instrument()
	s := NewBatterySensor(f.mgr, f.dev)
	f.mgr.Register(s)
	slow, fast := 0, 0
	f.b.Subscribe(ChannelBattery, msg.Map{"interval": 60000.0}, func(pubsub.Event) { slow++ })
	f.b.Subscribe(ChannelBattery, msg.Map{"interval": 20000.0}, func(pubsub.Event) { fast++ })
	if iv := s.(*batterySensor).Interval(); iv != 20*time.Second {
		t.Errorf("Interval = %v, want 20s", iv)
	}
	f.clk.Advance(time.Minute + time.Second)
	// Both get every sample (topic pub/sub): 3 samples each.
	if slow != 3 || fast != 3 {
		t.Errorf("slow=%d fast=%d, want 3/3", slow, fast)
	}
	if n := reg.CounterValue("pubsub_publishes_total", obs.L("node", "n")); n != 3 {
		t.Errorf("%d readings published, want 3 (shared schedule)", n)
	}
}

func TestDemandAcrossMultipleBrokers(t *testing.T) {
	f := newFixture(t, true)
	s := NewBatterySensor(f.mgr, f.dev)
	f.mgr.Register(s)
	b2 := pubsub.New()
	f.mgr.AddBroker(b2)
	got2 := 0
	b2.Subscribe(ChannelBattery, nil, func(pubsub.Event) { got2++ })
	if !s.(*batterySensor).Active() {
		t.Fatal("demand on second broker not seen")
	}
	f.clk.Advance(2*time.Minute + time.Second)
	if got2 != 2 {
		t.Errorf("got2 = %d", got2)
	}
	f.mgr.RemoveBroker(b2)
	if s.(*batterySensor).Active() {
		t.Error("sensor active after demanding broker removed")
	}
}

func TestMinIntervalClamp(t *testing.T) {
	f := newFixture(t, true)
	s := NewWifiScanSensor(f.mgr, stubScanner{}, WifiScanConfig{})
	f.mgr.Register(s)
	f.b.Subscribe(ChannelWifiScan, msg.Map{"interval": 1.0}, func(pubsub.Event) {})
	if iv := s.(*wifiScanSensor).Interval(); iv != 5*time.Second {
		t.Errorf("Interval = %v, want clamped 5s", iv)
	}
}

type stubScanner struct{}

func (stubScanner) ScanWifi() []AccessPoint {
	return []AccessPoint{
		{BSSID: "aa:bb", SSID: "net", RSSI: -60},
		{BSSID: "cc:dd", SSID: "tether", RSSI: -70, LocallyAdministered: true},
	}
}

func TestWifiScanSensorPublishesAndDrawsPower(t *testing.T) {
	f := newFixture(t, true)
	s := NewWifiScanSensor(f.mgr, stubScanner{}, WifiScanConfig{Meter: f.meter})
	f.mgr.Register(s)
	var scans []msg.Map
	f.b.Subscribe(ChannelWifiScan, msg.Map{"interval": 60000.0}, func(ev pubsub.Event) {
		scans = append(scans, ev.Message.Map())
	})
	before := f.meter.Energy()
	f.clk.Advance(2*time.Minute + 5*time.Second)
	if len(scans) != 2 {
		t.Fatalf("scans = %d, want 2", len(scans))
	}
	aps := scans[0]["aps"].([]msg.Value)
	if len(aps) != 2 {
		t.Fatalf("aps = %v", aps)
	}
	ap0 := aps[0].(msg.Map)
	if ap0["bssid"].(string) != "aa:bb" || ap0["rssi"].(float64) != -60 {
		t.Errorf("ap0 = %v", ap0)
	}
	if aps[1].(msg.Map)["local"].(bool) != true {
		t.Errorf("locally administered flag lost")
	}
	// 2 scans × 1.5 s × 0.5 W = 1.5 J of scan energy plus CPU/base.
	if delta := f.meter.Energy() - before; delta < 1.5 {
		t.Errorf("scan energy delta = %v J, want ≥ 1.5", delta)
	}
}

type stubLocation struct{}

func (stubLocation) Location(provider string) (Position, bool) {
	switch provider {
	case "GPS":
		return Position{Lat: 52.0, Lon: 4.35, Provider: "GPS", Accuracy: 5}, true
	case "NETWORK":
		return Position{Lat: 52.01, Lon: 4.36, Provider: "NETWORK", Accuracy: 500}, true
	default:
		return Position{}, false
	}
}

func TestLocationSensorProviderParameter(t *testing.T) {
	f := newFixture(t, true)
	f.mgr.Register(NewLocationSensor(f.mgr, stubLocation{}))
	var got []msg.Map
	f.b.Subscribe(channelLocation, msg.Map{"provider": "GPS", "interval": 60000.0}, func(ev pubsub.Event) {
		got = append(got, ev.Message.Map())
	})
	f.clk.Advance(time.Minute + time.Second)
	if len(got) != 1 {
		t.Fatalf("got = %d fixes", len(got))
	}
	if got[0]["provider"].(string) != "GPS" || got[0]["lat"].(float64) != 52.0 {
		t.Errorf("fix = %v", got[0])
	}
}

func TestLocationSensorDefaultProvider(t *testing.T) {
	f := newFixture(t, true)
	f.mgr.Register(NewLocationSensor(f.mgr, stubLocation{}))
	var got []msg.Map
	f.b.Subscribe(channelLocation, nil, func(ev pubsub.Event) { got = append(got, ev.Message.Map()) })
	f.clk.Advance(time.Minute + time.Second)
	if len(got) != 1 || got[0]["provider"].(string) != "NETWORK" {
		t.Errorf("got = %v", got)
	}
}

func TestManagerClose(t *testing.T) {
	f := newFixture(t, true)
	s := NewBatterySensor(f.mgr, f.dev)
	f.mgr.Register(s)
	count := 0
	f.b.Subscribe(ChannelBattery, nil, func(pubsub.Event) { count++ })
	f.clk.Advance(time.Minute + time.Second)
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	f.mgr.Close()
	f.mgr.Close() // idempotent
	f.clk.Advance(10 * time.Minute)
	if count != 1 {
		t.Errorf("sensor sampled after Close: %d", count)
	}
}

func TestDemandInterval(t *testing.T) {
	f := newFixture(t, false)
	if _, ok := f.mgr.demandInterval("x", time.Minute, time.Second); ok {
		t.Error("demand with no subscribers")
	}
	f.b.Subscribe("x", nil, func(pubsub.Event) {})
	iv, ok := f.mgr.demandInterval("x", time.Minute, time.Second)
	if !ok || iv != time.Minute {
		t.Errorf("default interval = %v, %v", iv, ok)
	}
	f.b.Subscribe("x", msg.Map{"interval": 2000.0}, func(pubsub.Event) {})
	iv, _ = f.mgr.demandInterval("x", time.Minute, time.Second)
	if iv != 2*time.Second {
		t.Errorf("min interval = %v", iv)
	}
	f.b.Subscribe("x", msg.Map{"interval": 10.0}, func(pubsub.Event) {})
	iv, _ = f.mgr.demandInterval("x", time.Minute, time.Second)
	if iv != time.Second {
		t.Errorf("clamped interval = %v", iv)
	}
}

func TestCollectorModeSensors(t *testing.T) {
	// Sensors also run without a device (collector nodes have e.g. a mock
	// battery); mostly this exercises the nil-device scheduler path.
	f := newFixture(t, false)
	src := stubBattery{}
	f.mgr.Register(NewBatterySensor(f.mgr, src))
	count := 0
	f.b.Subscribe(ChannelBattery, nil, func(pubsub.Event) { count++ })
	f.clk.Advance(3*time.Minute + time.Second)
	if count != 3 {
		t.Errorf("count = %d", count)
	}
}

type stubBattery struct{}

func (stubBattery) BatteryVoltage() float64 { return 4.0 }
func (stubBattery) BatteryLevel() float64   { return 0.8 }
