// Package geo simulates the Google geolocation service the paper's
// collect.js uses (§4.1): given a set of observed Wi-Fi access points, it
// returns a coordinate estimate — here, the signal-weighted centroid of the
// known APs' surveyed positions.
//
// The Service half plugs into a collector context's broker as a
// request/response pair of channels: scripts publish {id, aps} on
// "geo-lookup" and receive {id, lat, lon, accuracy} on "geo-result".
package geo

import (
	"sync"

	"pogo/internal/msg"
	"pogo/internal/pubsub"
)

// Coord is a surveyed access point position.
type Coord struct {
	Lat, Lon float64
}

// DB maps BSSIDs to surveyed coordinates. The zero value is not usable;
// construct with NewDB.
type DB struct {
	mu  sync.RWMutex
	aps map[string]Coord
}

// NewDB returns an empty AP survey database.
func NewDB() *DB {
	return &DB{aps: make(map[string]Coord)}
}

// Add surveys an access point at the given coordinate.
func (d *DB) Add(bssid string, c Coord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.aps[bssid] = c
}

// Len returns the number of surveyed APs.
func (d *DB) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.aps)
}

// Locate estimates a position from a sparse BSSID → signal-weight vector.
// It returns false when no observed AP is in the database.
func (d *DB) Locate(aps map[string]float64) (Coord, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var lat, lon, weight float64
	for bssid, w := range aps {
		c, ok := d.aps[bssid]
		if !ok {
			continue
		}
		if w <= 0 {
			w = 0.01
		}
		lat += c.Lat * w
		lon += c.Lon * w
		weight += w
	}
	if weight == 0 {
		return Coord{}, false
	}
	return Coord{Lat: lat / weight, Lon: lon / weight}, true
}

// Channel names of the lookup service.
const (
	ChannelLookup = "geo-lookup"
	ChannelResult = "geo-result"
)

// Service answers geo-lookup requests on a broker. Construct with
// NewService; call Close to detach.
type Service struct {
	db  *DB
	sub *pubsub.Subscription
	// Lookups counts served requests (including misses).
	mu      sync.Mutex
	lookups int
	misses  int
}

// NewService attaches a lookup responder to the broker.
func NewService(db *DB, broker *pubsub.Broker) *Service {
	s := &Service{db: db}
	s.sub = broker.Subscribe(ChannelLookup, nil, func(ev pubsub.Event) {
		s.mu.Lock()
		s.lookups++
		s.mu.Unlock()
		m := ev.Message.Map()
		id := m["id"]
		apsRaw, _ := m["aps"].(msg.Map)
		aps := make(map[string]float64, len(apsRaw))
		for k, v := range apsRaw {
			if f, ok := v.(float64); ok {
				aps[k] = f
			}
		}
		c, ok := s.db.Locate(aps)
		if !ok {
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			broker.Publish(ChannelResult, msg.Map{"id": id, "error": "not-found"})
			return
		}
		broker.Publish(ChannelResult, msg.Map{
			"id": id, "lat": c.Lat, "lon": c.Lon, "accuracy": 30.0,
		})
	})
	return s
}

// Stats returns (lookups, misses).
func (s *Service) Stats() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookups, s.misses
}

// Close detaches the service from its broker.
func (s *Service) Close() { s.sub.Close() }
