package core

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pogo/internal/android"
	"pogo/internal/energy"
	"pogo/internal/geo"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/pubsub"
	"pogo/internal/radio"
	"pogo/internal/script/scripts"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// rig is a complete simulated testbed: one collector, N devices.
type rig struct {
	t   *testing.T
	clk *vclock.Sim
	sb  *transport.Switchboard
	col *Node
	dev map[string]*simDevice
}

type simDevice struct {
	id      string
	meter   *energy.Meter
	droid   *android.Device
	modem   *radio.Modem
	conn    *radio.Connectivity
	port    *transport.Port
	node    *Node
	scanner *stubScanner
	storage store.KV

	mu     sync.Mutex
	prints []string // what the node's scripts print()ed, through Config.OnPrint
}

// printed returns what the device's scripts have printed so far.
func (d *simDevice) printed() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.prints)
}

type stubScanner struct {
	aps   []sensors.AccessPoint
	calls int
}

func (s *stubScanner) ScanWifi() []sensors.AccessPoint {
	s.calls++
	return s.aps
}

func newRig(t *testing.T, deviceIDs ...string) *rig {
	t.Helper()
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)
	r := &rig{t: t, clk: clk, sb: sb, dev: make(map[string]*simDevice)}

	colPort := sb.Port("collector", nil)
	col, err := NewNode(Config{
		ID: "collector", Mode: CollectorMode, Clock: clk, Messenger: colPort,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(col.Close)
	r.col = col

	for _, id := range deviceIDs {
		sb.Associate("collector", id)
		r.addDevice(id, FlushImmediate, store.NewMemKV(), "")
	}
	return r
}

func (r *rig) addDevice(id string, policy FlushPolicy, storage store.KV, outboxPath string) *simDevice {
	r.t.Helper()
	meter := energy.NewMeter(r.clk)
	droid := android.NewDevice(r.clk, meter, android.Config{})
	modem := radio.NewModem(r.clk, meter, radio.KPN)
	conn := radio.NewConnectivity(modem, nil)
	port := r.sb.Port(id, conn)
	d := &simDevice{
		id: id, meter: meter, droid: droid, modem: modem, conn: conn,
		port: port, storage: storage,
	}
	node, err := NewNode(Config{
		ID: id, Mode: DeviceMode, Clock: r.clk, Messenger: port,
		Device: droid, Modem: modem, Storage: storage, OutboxPath: outboxPath,
		FlushPolicy: policy,
		OnPrint: func(_, text string) {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.prints = append(d.prints, text)
		},
	})
	if err != nil {
		r.t.Fatal(err)
	}
	scanner := &stubScanner{}
	node.Sensors().Register(sensors.NewBatterySensor(node.Sensors(), droid))
	node.Sensors().Register(sensors.NewWifiScanSensor(node.Sensors(), scanner, sensors.WifiScanConfig{Meter: meter}))
	d.node, d.scanner = node, scanner
	r.dev[id] = d
	r.t.Cleanup(node.Close)
	return d
}

func TestEndToEndBatteryExperiment(t *testing.T) {
	r := newRig(t, "dev1", "dev2")
	if err := r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js")); err != nil {
		t.Fatal(err)
	}
	if err := r.col.Deploy("battery.js", scripts.MustSource("battery.js")); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(5*time.Minute + 30*time.Second)

	lines := r.col.Logs().Lines("battery")
	// 2 devices × 5 samples (1/min).
	if len(lines) != 10 {
		t.Fatalf("battery log lines = %d, want 10\n%v", len(lines), lines)
	}
	seen := map[string]int{}
	for _, l := range lines {
		seen[strings.Fields(l)[0]]++
		if !strings.Contains(l, `"voltage":`) {
			t.Errorf("line %q missing voltage", l)
		}
	}
	if seen["dev1"] != 5 || seen["dev2"] != 5 {
		t.Errorf("per-device counts = %v", seen)
	}
}

func TestSensorRunsOnlyWithRemoteDemand(t *testing.T) {
	// The battery sensor must be OFF until the collector script's
	// subscription propagates, and OFF again after undeploy.
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	r.clk.Advance(10 * time.Minute)
	if got := d.node.Endpoint().Stats().MessagesEnqueued; got > 2 {
		t.Fatalf("device enqueued %d messages with no experiment", got)
	}

	r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	r.col.Deploy("battery.js", scripts.MustSource("battery.js"))
	r.clk.Advance(3 * time.Minute)
	n1 := len(r.col.Logs().Lines("battery"))
	if n1 == 0 {
		t.Fatal("no reports with demand")
	}

	r.col.Undeploy("battery.js")
	r.clk.Advance(10 * time.Minute)
	n2 := len(r.col.Logs().Lines("battery"))
	if n2 > n1 {
		t.Errorf("reports kept flowing after undeploy: %d → %d", n1, n2)
	}
}

func TestDeployValidatesSource(t *testing.T) {
	r := newRig(t, "dev1")
	if err := r.col.Deploy("bad.js", "var = ;"); err == nil {
		t.Error("syntax error deployed")
	}
	if err := r.col.DeployLocal("bad.js", "function ("); err == nil {
		t.Error("DeployLocal accepted bad source")
	}
}

func TestModeEnforcement(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	if err := d.node.Deploy("x.js", "print(1);"); err == nil {
		t.Error("device node deployed")
	}
	if err := d.node.Undeploy("x.js"); err == nil {
		t.Error("device node undeployed")
	}
	if err := d.node.DeployLocal("x.js", "print(1);"); err == nil {
		t.Error("device node deployed locally")
	}
	if r.col.LocalContext() == nil {
		t.Error("collector has no local context")
	}
	if d.node.LocalContext() != nil {
		t.Error("device has a local context")
	}
}

func TestScriptUpdateReplacesAndKeepsFrozenState(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	r.col.Deploy("s.js", `
		setDescription('v1');
		var st = thaw();
		var n = st === null ? 0 : st.n;
		freeze({ n: n + 1 });
	`)
	r.clk.Advance(10 * time.Second)
	ctx := d.node.Contexts()["collector"]
	if ctx == nil {
		t.Fatal("no context")
	}
	if desc := ctx.Script("s.js").Description(); desc != "v1" {
		t.Fatalf("desc = %q", desc)
	}

	// Same source again: idempotent, no restart (frozen n stays 1).
	r.col.Deploy("s.js", r.colDeployedSource(t, "s.js"))
	r.clk.Advance(10 * time.Second)

	// Updated source: restart; thaw sees v1's state.
	r.col.Deploy("s.js", `
		setDescription('v2');
		var st = thaw();
		var n = st === null ? 0 : st.n;
		freeze({ n: n + 1 });
		print('n=' + n);
	`)
	r.clk.Advance(10 * time.Second)
	if desc := ctx.Script("s.js").Description(); desc != "v2" {
		t.Errorf("desc after update = %q", desc)
	}
	if prints := d.printed(); len(prints) != 1 || prints[0] != "n=1" {
		t.Errorf("prints = %q (state lost across update?)", prints)
	}
}

// colDeployedSource digs the currently deployed source out of the collector.
func (r *rig) colDeployedSource(t *testing.T, name string) string {
	t.Helper()
	r.col.mu.Lock()
	defer r.col.mu.Unlock()
	src, ok := r.col.deploys[name]
	if !ok {
		t.Fatalf("no deployment %s", name)
	}
	return src
}

func TestRebootRedeploysAndThaws(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	r.col.Deploy("counter.js", `
		var st = thaw();
		var boots = st === null ? 0 : st.boots;
		freeze({ boots: boots + 1 });
		print('boot ' + boots);
	`)
	r.clk.Advance(time.Minute)
	if p := d.printed(); len(p) != 1 || p[0] != "boot 0" {
		t.Fatalf("first boot prints = %q", p)
	}

	// Reboot: node torn down, new node with the SAME storage and identity.
	d.node.Close()
	d.port.Close()
	r.clk.Advance(time.Minute)
	d2 := r.addDevice("dev1", FlushImmediate, d.storage, "")
	r.clk.Advance(time.Minute)

	if p := d2.printed(); len(p) != 1 || p[0] != "boot 1" {
		t.Errorf("post-reboot prints = %q (redeploy or thaw failed)", p)
	}
}

// TestRebootStartsNewPublicationTraces: a node numbers its publications
// from 1 again in every boot, and the boot is part of what their traces
// derive from, so a rebooted node does not repeat the traces of the boot
// before — and the collector derives the very trace the device assigned.
func TestRebootStartsNewPublicationTraces(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	var arrived []obs.TraceID
	r.col.LocalContext().Broker().Subscribe("c", nil, func(ev pubsub.Event) { arrived = append(arrived, ev.Trace) })
	if err := r.col.DeployLocal("c.js", `subscribe('c', function (m) {});`); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(time.Minute)
	publish := func(n *Node) pubsub.Event {
		t.Helper()
		ctx := n.Contexts()["collector"]
		if ctx == nil {
			t.Fatal("the collector's context never reached the device")
		}
		var got pubsub.Event
		ctx.Broker().Subscribe("c", nil, func(ev pubsub.Event) { got = ev })
		ctx.Broker().Publish("c", msg.Map{"n": 1.0})
		return got
	}
	first := publish(d.node)
	r.clk.Advance(time.Minute)
	d.node.Close()
	d.port.Close()
	r.clk.Advance(time.Minute)
	d2 := r.addDevice("dev1", FlushImmediate, d.storage, "")
	r.clk.Advance(time.Minute)
	second := publish(d2.node)
	if first.Pub != 1 || second.Pub != 1 {
		t.Fatalf("publication numbers %d and %d, want 1 in each boot", first.Pub, second.Pub)
	}
	if first.Trace == second.Trace {
		t.Errorf("both boots' first publication carry trace %s", first.Trace)
	}
	if want := obs.PublicationsOf("dev1", d2.node.ep.BootID()).Trace(1); second.Trace != want {
		t.Errorf("second boot's publication carries %s, want %s", second.Trace, want)
	}
	r.clk.Advance(time.Minute)
	if len(arrived) != 2 || arrived[0] != first.Trace || arrived[1] != second.Trace {
		t.Errorf("the collector saw traces %v, want [%s %s]", arrived, first.Trace, second.Trace)
	}
}

func TestOfflineBufferingEndToEnd(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	r.col.Deploy("battery.js", scripts.MustSource("battery.js"))
	r.clk.Advance(2*time.Minute + 10*time.Second)
	base := len(r.col.Logs().Lines("battery"))
	if base == 0 {
		t.Fatal("no reports while online")
	}

	// Out of coverage for an hour: samples buffer on the device.
	d.conn.SetActive(radio.InterfaceNone)
	r.clk.Advance(time.Hour)
	if got := len(r.col.Logs().Lines("battery")); got != base {
		t.Fatalf("reports arrived while offline: %d → %d", base, got)
	}
	if d.node.Pending() < 50 {
		t.Fatalf("Pending = %d, want ~60 buffered samples", d.node.Pending())
	}

	// Coverage back: reconnect flush drains the backlog.
	d.conn.SetActive(radio.InterfaceCellular)
	r.clk.Advance(5 * time.Minute)
	got := len(r.col.Logs().Lines("battery"))
	if got < base+55 {
		t.Errorf("after reconnect: %d lines, want ≥ %d", got, base+55)
	}
	if d.node.Pending() > 6 {
		t.Errorf("Pending = %d after reconnect", d.node.Pending())
	}
}

func TestReservedChannelsRejected(t *testing.T) {
	r := newRig(t, "dev1")
	errs := 0
	r.col.cfg.OnScriptError = func(string, error) { errs++ }
	if err := r.col.DeployLocal("evil.js", `publish('@deploy', { name: 'x' });`); err == nil {
		t.Error("publish on reserved channel succeeded")
	}
	if err := r.col.DeployLocal("evil2.js", `subscribe('@hello', function() {});`); err == nil {
		t.Error("subscribe on reserved channel succeeded")
	}
}

func TestLocalizationPipelineEndToEnd(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]

	// Geo service + survey of the "home" APs.
	db := geo.NewDB()
	db.Add("h1", geo.Coord{Lat: 52.0, Lon: 4.35})
	db.Add("h2", geo.Coord{Lat: 52.0, Lon: 4.35})
	svc := geo.NewService(db, r.col.LocalContext().Broker())
	defer svc.Close()

	r.col.DeployLocal("collect.js", scripts.MustSource("collect.js"))
	r.col.Deploy("scan.js", scripts.MustSource("scan.js"))
	r.col.Deploy("clustering.js", scripts.MustSource("clustering.js"))

	// 20 minutes at home, then the environment changes (user walks away).
	d.scanner.aps = []sensors.AccessPoint{
		{BSSID: "h1", SSID: "home", RSSI: -60},
		{BSSID: "h2", SSID: "home", RSSI: -70},
		{BSSID: "tether", SSID: "AndroidAP", RSSI: -50, LocallyAdministered: true},
	}
	r.clk.Advance(20 * time.Minute)
	d.scanner.aps = []sensors.AccessPoint{{BSSID: "x9", SSID: "street", RSSI: -80}}
	r.clk.Advance(5 * time.Minute)

	places := r.col.Logs().Lines("places")
	if len(places) != 1 {
		t.Fatalf("places = %v", places)
	}
	line := places[0]
	for _, want := range []string{`"device":"dev1"`, `"lat":52`, `"lon":4.35`, `"aps":{"h1":`} {
		if !strings.Contains(line, want) {
			t.Errorf("place record missing %s: %s", want, line)
		}
	}
	if strings.Contains(line, "tether") {
		t.Error("locally administered AP leaked into the cluster")
	}
}

func TestTailSyncFlushPolicy(t *testing.T) {
	// With FlushTailSync and an e-mail app on the device, reports must leave
	// in batches aligned with the email checks and the modem must never ramp
	// up for Pogo alone.
	r := newRig(t)
	r.sb.Associate("collector", "dev1")
	d := r.addDevice("dev1", FlushTailSync, store.NewMemKV(), "")
	email := android.NewPeriodicApp(r.clk, d.droid, d.modem, nil)
	email.Start()

	r.col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	r.col.Deploy("battery.js", scripts.MustSource("battery.js"))
	r.clk.Advance(31 * time.Minute)

	lines := r.col.Logs().Lines("battery")
	if len(lines) < 20 {
		t.Fatalf("only %d reports in 31 min", len(lines))
	}
	st := d.node.Endpoint().Stats()
	// Batching: ~6 flush bursts for ~25+ messages means ≳4 msgs per burst on
	// average; MessagesSent counts data messages, Flushes counts attempts.
	if st.Flushes == 0 {
		t.Fatal("no flushes")
	}
	if d.node.TailDetector().Fires() < 5 {
		t.Errorf("tail detector fired %d times in 31 min of 5-min emails", d.node.TailDetector().Fires())
	}
	// The device should hold samples between email checks.
	if st.MessagesSent < 20 {
		t.Errorf("sent = %d", st.MessagesSent)
	}
}

func TestRogueFinderAcrossNetwork(t *testing.T) {
	r := newRig(t, "dev1")
	d := r.dev["dev1"]
	loc := &stubLocation{lat: 2.0, lon: 1.0} // inside the Listing 2 polygon
	d.node.Sensors().Register(sensors.NewLocationSensor(d.node.Sensors(), loc))
	d.scanner.aps = []sensors.AccessPoint{{BSSID: "rogue", SSID: "evil", RSSI: -50}}

	r.col.DeployLocal("roguefinder-collect.js", scripts.MustSource("roguefinder-collect.js"))
	r.col.Deploy("roguefinder.js", scripts.MustSource("roguefinder.js"))

	r.clk.Advance(5 * time.Minute)
	inArea := len(r.col.Logs().Lines("scans"))
	if inArea == 0 {
		t.Fatal("no scans reported inside the polygon")
	}

	// Leave the polygon: reporting must stop (sensor off, subscription
	// released).
	loc.lat, loc.lon = 50.0, 50.0
	r.clk.Advance(2 * time.Minute) // location sensor notices
	base := len(r.col.Logs().Lines("scans"))
	r.clk.Advance(10 * time.Minute)
	after := len(r.col.Logs().Lines("scans"))
	if after > base+1 {
		t.Errorf("scans kept flowing outside polygon: %d → %d", base, after)
	}
}

type stubLocation struct{ lat, lon float64 }

func (s *stubLocation) Location(provider string) (sensors.Position, bool) {
	return sensors.Position{Lat: s.lat, Lon: s.lon, Provider: provider, Accuracy: 10}, true
}

func TestNewNodeValidation(t *testing.T) {
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)
	port := sb.Port("x", nil)
	if _, err := NewNode(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewNode(Config{ID: "x", Clock: clk, Messenger: port, Mode: Mode(99)}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewNode(Config{ID: "x", Clock: clk, Messenger: port, Mode: DeviceMode, FlushPolicy: FlushTailSync}); err == nil {
		t.Error("tail-sync without device accepted")
	}
	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	if _, err := NewNode(Config{ID: "x", Clock: clk, Messenger: port, Mode: CollectorMode, Device: droid}); err == nil {
		t.Error("collector with device accepted")
	}
}

func TestLogStore(t *testing.T) {
	l := newLogStore()
	var hooked []string
	l.SetOnAppend(func(log, line string) { hooked = append(hooked, log+":"+line) })
	l.append("a", "1")
	l.append("a", "2")
	l.append("b", "3")
	if got := l.Lines("a"); len(got) != 2 || got[1] != "2" {
		t.Errorf("Lines(a) = %v", got)
	}
	if len(l.Names()) != 2 {
		t.Errorf("Names = %v", l.Names())
	}
	if len(hooked) != 3 {
		t.Errorf("hooked = %v", hooked)
	}
	if got := l.Lines("missing"); got == nil || len(got) != 0 {
		t.Errorf("Lines(missing) = %#v, want empty", got)
	}
	// Across block boundaries, empty lines included, Lines gives back every
	// line in order, and a copy: appending after a read leaves it alone.
	var want []string
	for i := 0; i < 2*logBlock+3; i++ {
		line := strconv.Itoa(i)
		if i%7 == 0 || i == logBlock-1 || i == logBlock {
			line = ""
		}
		want = append(want, line)
		l.append("c", line)
		if i == logBlock-1 || i == logBlock || i == 2*logBlock+2 {
			if got := l.Lines("c"); !slices.Equal(got, want) {
				t.Fatalf("after %d lines: Lines(c) has %d lines, differing from what was appended", i+1, len(got))
			}
		}
	}
	got := l.Lines("c")
	l.append("c", "later")
	if !slices.Equal(got, want) || len(l.Lines("c")) != len(want)+1 {
		t.Errorf("a later append changed an earlier Lines result, or was lost")
	}
}

func TestPublishNonMapWrapped(t *testing.T) {
	r := newRig(t, "dev1")
	var got []msg.Map
	r.col.LocalContext().Broker().Subscribe("nums", nil, func(ev pubsub.Event) {
		got = append(got, ev.Message.Map())
	})
	_ = got
	// Scripts may publish scalars; the host wraps them as {value: v}.
	if err := r.col.DeployLocal("s.js", `publish('nums', 42);`); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Second)
	if len(got) != 1 || got[0]["value"].(float64) != 42 {
		t.Errorf("got = %v", got)
	}
}

// TestLocalAndRemoteSubscribersAgree: a script on the phone and one on the
// collector, subscribed to the same channel, read every publication the same
// way — json(m), the type, 1/v and the string form of the odd value — for
// NaN, the infinities, -0, 1e21 and invalid UTF-8. A map that does not encode
// reaches neither: Publish refuses it.
func TestLocalAndRemoteSubscribersAgree(t *testing.T) {
	r := newRig(t, "dev1")
	const probe = `subscribe('odd', function (m) {
  logTo('seen', json(m) + ' ' + typeof m.v + ' ' + (1 / m.v) + ' ' + m.v);
});`
	if err := r.col.Deploy("local.js", probe); err != nil {
		t.Fatal(err)
	}
	if err := r.col.DeployLocal("remote.js", probe); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(10 * time.Second)
	phone := r.dev["dev1"].node
	ctx := phone.Contexts()["collector"]
	if ctx == nil {
		t.Fatal("no collector context on the phone")
	}
	values := []any{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, "bad\xffutf8", make(chan int)}
	for _, v := range values {
		want := 2 // the local script and the proxy
		if _, isChan := v.(chan int); isChan {
			want = 0
		}
		if got := ctx.Broker().Publish("odd", msg.Map{"v": v}); got != want {
			t.Errorf("Publish({v: %v}) reached %d subscribers, want %d", v, got, want)
		}
		r.clk.Advance(10 * time.Second)
	}
	local, remote := phone.Logs().Lines("seen"), r.col.Logs().Lines("seen")
	if len(local) != len(values)-1 || strings.Join(local, "\n") != strings.Join(remote, "\n") {
		t.Fatalf("subscribers disagree:\n local %q\nremote %q", local, remote)
	}
	if want := `{"v":"bad�utf8"} string NaN bad` + "�" + `utf8`; local[5] != want {
		t.Errorf("invalid UTF-8 read as %q, want %q", local[5], want)
	}
	if want := `{"v":0} number Infinity 0`; local[3] != want {
		t.Errorf("-0 read as %q, want %q", local[3], want)
	}
}
