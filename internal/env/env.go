// Package env is the synthetic world that substitutes for the paper's 24-day
// real-user deployment (§5.3): places with Wi-Fi access points, per-user
// mobility schedules, and noisy scan generation.
//
// The real experiment gave 8 users phones for 24 days and collected 246,908
// access point scans. We cannot recruit users, so we generate their lives:
// each user has a home, shares an office and a café with the others, commutes
// on weekdays, runs errands on weekends, and occasionally travels. Scans of
// the current place perturb each AP's RSSI with Gaussian noise and drop APs
// probabilistically, so the clustering problem is non-trivial in the same
// way real 802.11 beacons are.
package env

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pogo/internal/geo"
	"pogo/internal/sensors"
	"pogo/internal/vclock"
)

// AP is one access point placed in the world.
type AP struct {
	BSSID string
	SSID  string
	// BaseRSSI is the mean signal strength seen when dwelling at the AP's
	// place, in dBm.
	BaseRSSI float64
}

// Place is a location where users dwell.
type Place struct {
	Name     string
	Lat, Lon float64
	APs      []AP
}

// Leg is one segment of a user's schedule: dwelling at a place, or in
// transit when Place is nil.
type Leg struct {
	Place *Place
	Start time.Time
	End   time.Time
}

// Schedule is a user's full itinerary, as contiguous legs.
type Schedule struct {
	Legs []Leg
}

// At returns the place occupied at t (nil while in transit or outside the
// schedule).
func (s *Schedule) At(t time.Time) *Place {
	for i := range s.Legs {
		if !t.Before(s.Legs[i].Start) && t.Before(s.Legs[i].End) {
			return s.Legs[i].Place
		}
	}
	return nil
}

// World holds the shared geography of one experiment.
type World struct {
	SharedPlaces []*Place // office, café, gym, supermarket
	homes        map[string]*Place
	rng          *rand.Rand
	apSeq        int
}

// NewWorld builds the shared geography from a seed.
func NewWorld(seed int64) *World {
	w := &World{rng: rand.New(rand.NewSource(seed)), homes: make(map[string]*Place)}
	w.SharedPlaces = []*Place{
		w.newPlace("office", 52.0022, 4.3736, 8),
		w.newPlace("cafe", 52.0110, 4.3571, 4),
		w.newPlace("gym", 52.0065, 4.3622, 3),
		w.newPlace("supermarket", 52.0093, 4.3660, 3),
		w.newPlace("station", 52.0066, 4.3565, 5),
	}
	return w
}

// newPlace creates a place with n access points near the coordinate.
func (w *World) newPlace(name string, lat, lon float64, n int) *Place {
	p := &Place{Name: name, Lat: lat, Lon: lon}
	for i := 0; i < n; i++ {
		w.apSeq++
		p.APs = append(p.APs, AP{
			BSSID:    fmt.Sprintf("%02x:%02x:%02x:%02x", (w.apSeq>>24)&0xff, (w.apSeq>>16)&0xff, (w.apSeq>>8)&0xff, w.apSeq&0xff),
			SSID:     fmt.Sprintf("%s-net-%d", name, i),
			BaseRSSI: -50 - w.rng.Float64()*30, // -50 .. -80 dBm
		})
	}
	return p
}

// home returns (creating on first use) a user's home place.
func (w *World) home(user string) *Place {
	if p, ok := w.homes[user]; ok {
		return p
	}
	lat := 52.00 + w.rng.Float64()*0.04
	lon := 4.34 + w.rng.Float64()*0.05
	p := w.newPlace("home-"+user, lat, lon, 3+w.rng.Intn(4))
	w.homes[user] = p
	return p
}

// allPlaces returns the shared places plus every home created so far.
func (w *World) allPlaces() []*Place {
	out := append([]*Place(nil), w.SharedPlaces...)
	for _, p := range w.homes {
		out = append(out, p)
	}
	return out
}

// SurveyInto registers every AP of every place in a geolocation database,
// simulating the wardriving survey behind the Google geolocation API.
func (w *World) SurveyInto(db *geo.DB) {
	for _, p := range w.allPlaces() {
		for _, ap := range p.APs {
			db.Add(ap.BSSID, geo.Coord{Lat: p.Lat, Lon: p.Lon})
		}
	}
}

// ScheduleConfig tunes schedule generation.
type ScheduleConfig struct {
	Start time.Time
	Days  int
	Seed  int64
}

// GenerateSchedule produces a user's itinerary: weekday commutes to the
// office with lunch breaks, evening errands, weekends at home with
// excursions. Gaps between dwells are transit legs.
func (w *World) GenerateSchedule(user string, cfg ScheduleConfig) *Schedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	home := w.home(user)
	office := w.SharedPlaces[0]
	cafe := w.SharedPlaces[1]
	gym := w.SharedPlaces[2]
	supermarket := w.SharedPlaces[3]

	var legs []Leg
	cursor := cfg.Start
	day := cfg.Start
	addDwell := func(p *Place, until time.Time) {
		if until.After(cursor) {
			legs = append(legs, Leg{Place: p, Start: cursor, End: until})
			cursor = until
		}
	}
	transitTo := func(at time.Time) {
		if at.After(cursor) {
			legs = append(legs, Leg{Place: nil, Start: cursor, End: at})
			cursor = at
		}
	}
	jitter := func(d time.Duration) time.Duration {
		return d + time.Duration(rng.NormFloat64()*float64(15*time.Minute))
	}

	for d := 0; d < cfg.Days; d++ {
		dayStart := day.Add(time.Duration(d) * 24 * time.Hour)
		weekday := dayStart.Weekday()
		weekend := weekday == time.Saturday || weekday == time.Sunday

		if weekend {
			// Morning at home, an errand, afternoon at home, maybe gym.
			addDwell(home, dayStart.Add(jitter(11*time.Hour)))
			transitTo(cursor.Add(20 * time.Minute))
			addDwell(supermarket, cursor.Add(jitter(45*time.Minute)))
			transitTo(cursor.Add(20 * time.Minute))
			if rng.Float64() < 0.4 {
				addDwell(gym, cursor.Add(jitter(90*time.Minute)))
				transitTo(cursor.Add(20 * time.Minute))
			}
			addDwell(home, dayStart.Add(24*time.Hour))
			continue
		}

		// Weekday: home overnight → commute → office → lunch → office →
		// (gym?) → home.
		addDwell(home, dayStart.Add(jitter(8*time.Hour+30*time.Minute)))
		transitTo(cursor.Add(35 * time.Minute))
		addDwell(office, dayStart.Add(jitter(12*time.Hour+30*time.Minute)))
		if rng.Float64() < 0.7 {
			transitTo(cursor.Add(10 * time.Minute))
			addDwell(cafe, cursor.Add(jitter(45*time.Minute)))
			transitTo(cursor.Add(10 * time.Minute))
		}
		addDwell(office, dayStart.Add(jitter(17*time.Hour+30*time.Minute)))
		transitTo(cursor.Add(35 * time.Minute))
		if rng.Float64() < 0.3 {
			addDwell(gym, cursor.Add(jitter(80*time.Minute)))
			transitTo(cursor.Add(25 * time.Minute))
		}
		addDwell(home, dayStart.Add(24*time.Hour))
	}
	return &Schedule{Legs: legs}
}

// DeviceView is a user's phone's window onto the world, implementing the
// sensor source interfaces.
type DeviceView struct {
	clk      vclock.Clock
	schedule *Schedule
	rng      *rand.Rand

	// RSSINoise is the per-scan Gaussian perturbation in dB. Default 4.
	RSSINoise float64
	// DropProb is the probability any AP is missing from a scan. Default
	// 0.1.
	DropProb float64
	// TetherProb is the probability a scan includes a transient locally
	// administered AP (someone's phone hotspot). Default 0.05.
	TetherProb float64

	// OnScan (may be nil) observes every generated scan; the experiment
	// harness uses it as the raw SD-card ground-truth trace of §5.3.
	OnScan func(t time.Time, aps []sensors.AccessPoint)
}

var (
	_ sensors.WifiScanner    = (*DeviceView)(nil)
	_ sensors.LocationSource = (*DeviceView)(nil)
)

// NewDeviceView binds a schedule to a clock.
func NewDeviceView(clk vclock.Clock, schedule *Schedule, seed int64) *DeviceView {
	return &DeviceView{
		clk:        clk,
		schedule:   schedule,
		rng:        rand.New(rand.NewSource(seed)),
		RSSINoise:  4,
		DropProb:   0.1,
		TetherProb: 0.05,
	}
}

// ScanWifi implements sensors.WifiScanner: the AP environment at the
// user's current location, with realistic noise.
func (v *DeviceView) ScanWifi() []sensors.AccessPoint {
	now := v.clk.Now()
	place := v.schedule.At(now)
	var out []sensors.AccessPoint
	if place != nil {
		for _, ap := range place.APs {
			if v.rng.Float64() < v.DropProb {
				continue
			}
			rssi := ap.BaseRSSI + v.rng.NormFloat64()*v.RSSINoise
			if rssi < -99 {
				rssi = -99
			}
			if rssi > -30 {
				rssi = -30
			}
			out = append(out, sensors.AccessPoint{
				BSSID: ap.BSSID, SSID: ap.SSID, RSSI: rssi,
			})
		}
	} else {
		// Transit: a couple of one-off street APs, weak and unstable.
		n := v.rng.Intn(3)
		for i := 0; i < n; i++ {
			out = append(out, sensors.AccessPoint{
				BSSID: fmt.Sprintf("st:%08x", v.rng.Uint32()),
				SSID:  "street",
				RSSI:  -85 + v.rng.NormFloat64()*5,
			})
		}
	}
	if v.rng.Float64() < v.TetherProb {
		out = append(out, sensors.AccessPoint{
			BSSID:               fmt.Sprintf("te:%08x", v.rng.Uint32()),
			SSID:                "AndroidAP",
			RSSI:                -60 + v.rng.NormFloat64()*8,
			LocallyAdministered: true,
		})
	}
	if v.OnScan != nil {
		v.OnScan(now, out)
	}
	return out
}

// Location implements sensors.LocationSource with provider-dependent
// accuracy.
func (v *DeviceView) Location(provider string) (sensors.Position, bool) {
	now := v.clk.Now()
	place := v.schedule.At(now)
	if place == nil {
		return sensors.Position{}, false // no fix in transit (simplified)
	}
	acc := 500.0
	spread := 0.002
	if provider == "GPS" {
		acc = 8
		spread = 0.00005
	}
	return sensors.Position{
		Lat:      place.Lat + v.rng.NormFloat64()*spread,
		Lon:      place.Lon + v.rng.NormFloat64()*spread,
		Provider: provider,
		Accuracy: acc,
	}, true
}

// NormalizeRSSI maps dBm into [0,1] exactly like scan.js does.
func NormalizeRSSI(rssi float64) float64 {
	v := (rssi + 100) / 45 // (-100, -55) → (0, 1)
	return math.Max(0, math.Min(1, v))
}
