package script

import (
	"fmt"
	"strings"
	"testing"

	"pogo/internal/msg"
	"pogo/internal/script/scripts"
)

// These tests run the paper's bundled applications against a bare host.

func startBundled(t *testing.T, name string) (*testHost, *Script) {
	t.Helper()
	src, err := scripts.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHost()
	s, err := New(name, src, h, Config{})
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	return h, s
}

func TestAllBundledScriptsParseAndStart(t *testing.T) {
	for _, name := range scripts.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			h, s := startBundled(t, name)
			if len(h.errs) != 0 {
				t.Errorf("errors: %v", h.errs)
			}
			if s.Description() == "" {
				t.Error("no setDescription")
			}
		})
	}
}

// scanMsg builds a wifi-scan sensor message.
func scanMsg(t float64, aps map[string]float64, local ...string) msg.Map {
	isLocal := map[string]bool{}
	for _, l := range local {
		isLocal[l] = true
	}
	var list []msg.Value
	for bssid, rssi := range aps {
		list = append(list, msg.Map{
			"bssid": bssid, "ssid": "net-" + bssid, "rssi": rssi, "local": isLocal[bssid],
		})
	}
	return msg.Map{"aps": list, "timestamp": t}
}

func TestScanJSSanitizes(t *testing.T) {
	h, _ := startBundled(t, "scan.js")
	if len(h.subs) != 1 || h.subs[0].channel != "wifi-scan" {
		t.Fatalf("subs = %+v", h.subs)
	}
	iv, _ := msg.GetNumber(h.subs[0].params, "interval")
	if iv != 60000 {
		t.Errorf("interval param = %v", iv)
	}

	h.subs[0].handler(scanMsg(1000, map[string]float64{
		"aa":     -55,   // → 1.0
		"bb":     -100,  // → 0.0
		"cc":     -77.5, // → 0.5
		"dd":     -40,   // clamps to 1.0
		"tether": -30,
	}, "tether"), "")

	if len(h.published) != 1 {
		t.Fatalf("published = %v", h.published)
	}
	out := tree(t, h.published[0].payload)
	aps := out["aps"].(msg.Map)
	if _, hasTether := aps["tether"]; hasTether {
		t.Error("locally administered AP not removed")
	}
	if aps["aa"].(float64) != 1.0 || aps["bb"].(float64) != 0.0 || aps["dd"].(float64) != 1.0 {
		t.Errorf("normalization wrong: %v", aps)
	}
	if v := aps["cc"].(float64); v < 0.49 || v > 0.51 {
		t.Errorf("cc = %v, want 0.5", v)
	}

	// A scan with only local APs publishes nothing.
	h.published = nil
	h.subs[0].handler(scanMsg(2000, map[string]float64{"x": -50}, "x"), "")
	if len(h.published) != 0 {
		t.Error("all-local scan was published")
	}
}

// sanitized builds a 'scans' channel message as scan.js would emit it.
func sanitized(t float64, aps map[string]float64) msg.Map {
	m := msg.Map{}
	for k, v := range aps {
		m[k] = v
	}
	return msg.Map{"t": t, "aps": m}
}

func TestClusteringJSFindsDwell(t *testing.T) {
	h, _ := startBundled(t, "clustering.js")
	if len(h.subs) != 1 || h.subs[0].channel != "scans" {
		t.Fatalf("subs = %+v", h.subs)
	}
	feed := h.subs[0].handler

	home := map[string]float64{"h1": 0.9, "h2": 0.7, "h3": 0.5}
	office := map[string]float64{"o1": 0.8, "o2": 0.6}
	// 20 samples at home → dwell; then office samples close the cluster.
	for i := 0; i < 20; i++ {
		feed(sanitized(float64(1000+i*60), home), "")
	}
	if len(h.published) != 0 {
		t.Fatal("cluster closed while still dwelling")
	}
	for i := 0; i < 8; i++ {
		feed(sanitized(float64(3000+i*60), office), "")
	}
	if len(h.published) != 1 {
		t.Fatalf("published = %d, want 1 closed cluster", len(h.published))
	}
	c := tree(t, h.published[0].payload)
	if c["enter"].(float64) != 1000 {
		t.Errorf("enter = %v", c["enter"])
	}
	if n := c["samples"].(float64); n < 15 {
		t.Errorf("samples = %v", n)
	}
	aps := c["aps"].(msg.Map)
	if _, ok := aps["h1"]; !ok {
		t.Errorf("characterization lost home APs: %v", aps)
	}
	if h.published[0].channel != "clusters" {
		t.Errorf("channel = %s", h.published[0].channel)
	}
}

func TestClusteringJSNoisyScansNoCluster(t *testing.T) {
	h, _ := startBundled(t, "clustering.js")
	feed := h.subs[0].handler
	// Every scan sees a different AP set: never enough neighbours.
	for i := 0; i < 30; i++ {
		feed(sanitized(float64(i*60), map[string]float64{
			fmt.Sprintf("ap-%d", i): 0.9,
		}), "")
	}
	if len(h.published) != 0 {
		t.Errorf("published %d clusters from noise", len(h.published))
	}
}

func TestClusteringJSFreezeRestoresState(t *testing.T) {
	h, s := startBundled(t, "clustering.js")
	feed := h.subs[0].handler
	home := map[string]float64{"h1": 0.9, "h2": 0.7}
	for i := 0; i < 10; i++ {
		feed(sanitized(float64(1000+i*60), home), "")
	}
	if _, ok := h.frozen["clustering.js"]; !ok {
		t.Fatal("no frozen state")
	}
	s.Stop()

	// "Script update": new instance, same host storage.
	src, _ := scripts.Source("clustering.js")
	s2, err := New("clustering.js", src, h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	feed2 := h.subs[len(h.subs)-1].handler
	// Move away: the restored cluster closes with the ORIGINAL enter time.
	for i := 0; i < 3; i++ {
		feed2(sanitized(float64(9000+i*60), map[string]float64{"elsewhere": 1.0}), "")
	}
	if len(h.published) != 1 {
		t.Fatalf("published = %d", len(h.published))
	}
	c := tree(t, h.published[0].payload)
	if c["enter"].(float64) != 1000 {
		t.Errorf("enter = %v, want 1000 (state survived restart)", c["enter"])
	}
}

func TestCollectJSGeocodesAndLogs(t *testing.T) {
	h, _ := startBundled(t, "collect.js")
	if len(h.subs) != 2 {
		t.Fatalf("subs = %d", len(h.subs))
	}
	var clustersIn, geoIn func(msg.Value, string)
	for _, sub := range h.subs {
		switch sub.channel {
		case "clusters":
			clustersIn = sub.handler
		case "geo-result":
			geoIn = sub.handler
		}
	}
	if clustersIn == nil || geoIn == nil {
		t.Fatal("missing subscriptions")
	}

	clustersIn(msg.Map{
		"enter": 1000.0, "exit": 2000.0, "samples": 12.0,
		"aps": msg.Map{"h1": 0.9},
	}, "device7")
	if len(h.published) != 1 || h.published[0].channel != "geo-lookup" {
		t.Fatalf("published = %+v", h.published)
	}
	req := tree(t, h.published[0].payload)
	id := req["id"].(string)

	geoIn(msg.Map{"id": id, "lat": 52.0, "lon": 4.35}, "")
	if len(h.logs) != 1 {
		t.Fatalf("logs = %v", h.logs)
	}
	if !strings.HasPrefix(h.logs[0], "places|") {
		t.Errorf("log target: %q", h.logs[0])
	}
	if !strings.Contains(h.logs[0], `"device":"device7"`) || !strings.Contains(h.logs[0], `"lat":52`) {
		t.Errorf("log line: %q", h.logs[0])
	}
	// Unknown geo-result id is ignored.
	geoIn(msg.Map{"id": "bogus", "lat": 1.0, "lon": 1.0}, "")
	if len(h.logs) != 1 {
		t.Error("bogus geo-result logged")
	}
}

func TestRogueFinderGeofencing(t *testing.T) {
	h, _ := startBundled(t, "roguefinder.js")
	var wifiSub *testSub
	var locIn func(msg.Value, string)
	for _, sub := range h.subs {
		switch sub.channel {
		case "wifi-scan":
			wifiSub = sub
		case "location":
			locIn = sub.handler
		}
	}
	if wifiSub == nil || locIn == nil {
		t.Fatal("missing subscriptions")
	}
	// Released immediately at start (Listing 2 line 9).
	if wifiSub.active {
		t.Fatal("wifi-scan subscription not released at start")
	}

	// Inside the polygon {1,1},{2,2},{3,0}: its centroid (2, 1).
	locIn(msg.Map{"lat": 2.0, "lon": 1.0}, "")
	if !wifiSub.active {
		t.Error("subscription not renewed inside polygon")
	}
	// Scans inside the area are forwarded (publish(msg, 'filtered-scans')
	// exercises the swapped-argument tolerance).
	wifiSub.handler(msg.Map{"aps": []msg.Value{}}, "")
	if len(h.published) != 1 || h.published[0].channel != "filtered-scans" {
		t.Errorf("published = %+v", h.published)
	}

	// Outside the polygon.
	locIn(msg.Map{"lat": 10.0, "lon": 10.0}, "")
	if wifiSub.active {
		t.Error("subscription not released outside polygon")
	}
}

func TestBatteryScripts(t *testing.T) {
	h, _ := startBundled(t, "battery.js")
	h.subs[0].handler(msg.Map{"voltage": 4.0, "level": 0.9, "timestamp": 123.0}, "")
	if len(h.published) != 1 || h.published[0].channel != "battery-report" {
		t.Fatalf("published = %+v", h.published)
	}
	rep := tree(t, h.published[0].payload)
	if rep["voltage"].(float64) != 4.0 || rep["t"].(float64) != 123 {
		t.Errorf("report = %v", rep)
	}

	hc, _ := startBundled(t, "battery-collect.js")
	hc.subs[0].handler(rep, "dev3")
	if len(hc.logs) != 1 || !strings.Contains(hc.logs[0], "dev3") {
		t.Errorf("collector logs = %v", hc.logs)
	}
}

// tree is a published message as a subscriber's writer gets it: one plain
// tree, whatever mix of trees and encoded nodes the script handed over.
func tree(t *testing.T, v msg.Value) msg.Map {
	t.Helper()
	return mustRaw(t, v).Map()
}
