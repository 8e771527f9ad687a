package env

import (
	"testing"
	"time"

	"pogo/internal/geo"
	"pogo/internal/sensors"
	"pogo/internal/vclock"
)

func testWorldAndSchedule(t *testing.T, days int) (*World, *Schedule) {
	t.Helper()
	w := NewWorld(1)
	s := w.GenerateSchedule("user1", ScheduleConfig{Start: vclock.SimEpoch, Days: days, Seed: 2})
	return w, s
}

func TestScheduleCoversEveryInstant(t *testing.T) {
	_, s := testWorldAndSchedule(t, 7)
	if len(s.Legs) == 0 {
		t.Fatal("empty schedule")
	}
	// Legs must be contiguous and ordered.
	for i := 1; i < len(s.Legs); i++ {
		if !s.Legs[i].Start.Equal(s.Legs[i-1].End) {
			t.Fatalf("gap between legs %d and %d: %v vs %v", i-1, i, s.Legs[i-1].End, s.Legs[i].Start)
		}
	}
	if !s.Legs[0].Start.Equal(vclock.SimEpoch) {
		t.Errorf("starts at %v", s.Legs[0].Start)
	}
	end := s.Legs[len(s.Legs)-1].End
	if end.Before(vclock.SimEpoch.Add(7 * 24 * time.Hour)) {
		t.Errorf("ends at %v, want ≥ 7 days", end)
	}
}

func TestScheduleShape(t *testing.T) {
	w, s := testWorldAndSchedule(t, 14)
	home := w.home("user1")
	office := w.SharedPlaces[0]

	timeAt := map[*Place]time.Duration{}
	for _, l := range s.Legs {
		timeAt[l.Place] += l.End.Sub(l.Start)
	}
	if timeAt[home] < 7*24*time.Hour {
		t.Errorf("home time = %v, want majority", timeAt[home])
	}
	if timeAt[office] < 30*time.Hour {
		t.Errorf("office time = %v, want ≥ 30 h in two weeks", timeAt[office])
	}
	if timeAt[nil] == 0 {
		t.Error("no transit time")
	}
	// At 03:00 on day 2 the user is home.
	if p := s.At(vclock.SimEpoch.Add(27 * time.Hour)); p != home {
		t.Errorf("at 03:00 user at %v", p)
	}
	// Outside the schedule there is no place.
	if p := s.At(vclock.SimEpoch.Add(1000 * 24 * time.Hour)); p != nil {
		t.Error("place outside schedule")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	w1 := NewWorld(1)
	w2 := NewWorld(1)
	s1 := w1.GenerateSchedule("u", ScheduleConfig{Start: vclock.SimEpoch, Days: 5, Seed: 9})
	s2 := w2.GenerateSchedule("u", ScheduleConfig{Start: vclock.SimEpoch, Days: 5, Seed: 9})
	if len(s1.Legs) != len(s2.Legs) {
		t.Fatalf("legs = %d vs %d", len(s1.Legs), len(s2.Legs))
	}
	for i := range s1.Legs {
		if !s1.Legs[i].Start.Equal(s2.Legs[i].Start) || !s1.Legs[i].End.Equal(s2.Legs[i].End) {
			t.Fatalf("leg %d differs", i)
		}
	}
}

func TestDwells(t *testing.T) {
	_, s := testWorldAndSchedule(t, 3)
	dwells := s.Dwells(30 * time.Minute)
	if len(dwells) < 6 {
		t.Errorf("dwells = %d over 3 days", len(dwells))
	}
	for _, d := range dwells {
		if d.Place == nil {
			t.Error("transit leg in dwells")
		}
		if d.End.Sub(d.Start) < 30*time.Minute {
			t.Error("short leg in dwells")
		}
	}
}

func TestDeviceViewScans(t *testing.T) {
	w, s := testWorldAndSchedule(t, 2)
	clk := vclock.NewSim()
	v := NewDeviceView(clk, s, 3)
	v.DropProb = 0
	v.TetherProb = 1 // force a tether AP

	var rawCount int
	v.OnScan = func(time.Time, []sensors.AccessPoint) { rawCount++ }

	aps := v.ScanWifi()
	home := w.home("user1")
	// All home APs present (DropProb 0) + one tether.
	if len(aps) != len(home.APs)+1 {
		t.Fatalf("aps = %d, want %d", len(aps), len(home.APs)+1)
	}
	tethers := 0
	for _, ap := range aps {
		if ap.LocallyAdministered {
			tethers++
		}
		if ap.RSSI > -30 || ap.RSSI < -99 {
			t.Errorf("RSSI out of range: %v", ap.RSSI)
		}
	}
	if tethers != 1 {
		t.Errorf("tethers = %d", tethers)
	}
	if rawCount != 1 {
		t.Errorf("OnScan calls = %d", rawCount)
	}

	// Transit scans see only street noise.
	clk2 := vclock.NewSimAt(findTransit(t, s))
	v2 := NewDeviceView(clk2, s, 4)
	v2.TetherProb = 0
	for _, ap := range v2.ScanWifi() {
		if ap.SSID != "street" {
			t.Errorf("transit scan saw %q", ap.SSID)
		}
	}
}

func findTransit(t *testing.T, s *Schedule) time.Time {
	t.Helper()
	for _, l := range s.Legs {
		if l.Place == nil {
			return l.Start.Add(l.End.Sub(l.Start) / 2)
		}
	}
	t.Fatal("no transit leg")
	return time.Time{}
}

func TestDeviceViewLocation(t *testing.T) {
	w, s := testWorldAndSchedule(t, 1)
	clk := vclock.NewSim()
	v := NewDeviceView(clk, s, 5)
	home := w.home("user1")

	gps, ok := v.Location("GPS")
	if !ok {
		t.Fatal("no GPS fix at home")
	}
	if gps.Accuracy != 8 || gps.Provider != "GPS" {
		t.Errorf("gps = %+v", gps)
	}
	if diff := gps.Lat - home.Lat; diff > 0.001 || diff < -0.001 {
		t.Errorf("gps lat off by %v", diff)
	}
	net, _ := v.Location("NETWORK")
	if net.Accuracy != 500 {
		t.Errorf("network accuracy = %v", net.Accuracy)
	}

	clkT := vclock.NewSimAt(findTransit(t, s))
	vT := NewDeviceView(clkT, s, 6)
	if _, ok := vT.Location("GPS"); ok {
		t.Error("fix while in transit")
	}
}

func TestSurveyInto(t *testing.T) {
	w, _ := testWorldAndSchedule(t, 1)
	db := geo.NewDB()
	w.SurveyInto(db)
	total := 0
	for _, p := range w.allPlaces() {
		total += len(p.APs)
	}
	if db.Len() != total {
		t.Errorf("surveyed %d, want %d", db.Len(), total)
	}
	// Locating a home scan lands near home.
	home := w.home("user1")
	aps := map[string]float64{}
	for _, ap := range home.APs {
		aps[ap.BSSID] = 0.8
	}
	c, ok := db.Locate(aps)
	if !ok || c.Lat-home.Lat > 1e-9 || home.Lat-c.Lat > 1e-9 {
		t.Errorf("home locate = %+v", c)
	}
}

func TestHomeMemoized(t *testing.T) {
	w := NewWorld(1)
	if w.home("a") != w.home("a") {
		t.Error("Home not memoized")
	}
	if w.home("a") == w.home("b") {
		t.Error("distinct users share a home")
	}
	if n := len(w.allPlaces()); n != 7 {
		t.Errorf("AllPlaces = %d", n)
	}
}

func TestBSSIDsUnique(t *testing.T) {
	w := NewWorld(1)
	for i := 0; i < 8; i++ {
		w.home(string(rune('a' + i)))
	}
	seen := map[string]bool{}
	for _, p := range w.allPlaces() {
		for _, ap := range p.APs {
			if seen[ap.BSSID] {
				t.Fatalf("duplicate BSSID %s", ap.BSSID)
			}
			seen[ap.BSSID] = true
		}
	}
}

func TestNormalizeRSSI(t *testing.T) {
	if NormalizeRSSI(-100) != 0 || NormalizeRSSI(-55) != 1 {
		t.Error("anchors wrong")
	}
	if NormalizeRSSI(-150) != 0 || NormalizeRSSI(-10) != 1 {
		t.Error("clamping wrong")
	}
	mid := NormalizeRSSI(-77.5)
	if mid < 0.49 || mid > 0.51 {
		t.Errorf("mid = %v", mid)
	}
}
