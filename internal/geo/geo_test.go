package geo

import (
	"math"
	"testing"

	"pogo/internal/msg"
	"pogo/internal/pubsub"
)

func TestLocateWeightedCentroid(t *testing.T) {
	db := NewDB()
	db.Add("a", Coord{Lat: 52.0, Lon: 4.0})
	db.Add("b", Coord{Lat: 52.2, Lon: 4.2})
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	// Equal weights → midpoint.
	c, ok := db.Locate(map[string]float64{"a": 1, "b": 1})
	if !ok || math.Abs(c.Lat-52.1) > 1e-9 || math.Abs(c.Lon-4.1) > 1e-9 {
		t.Errorf("Locate = %+v, %v", c, ok)
	}
	// Heavier weight pulls the estimate.
	c, _ = db.Locate(map[string]float64{"a": 3, "b": 1})
	if c.Lat >= 52.1 {
		t.Errorf("weighting ignored: %+v", c)
	}
	// Unknown APs are ignored; all-unknown is a miss.
	c, ok = db.Locate(map[string]float64{"a": 1, "zz": 1})
	if !ok || math.Abs(c.Lat-52.0) > 1e-9 {
		t.Errorf("partial = %+v, %v", c, ok)
	}
	if _, ok := db.Locate(map[string]float64{"zz": 1}); ok {
		t.Error("all-unknown lookup succeeded")
	}
	if _, ok := db.Locate(nil); ok {
		t.Error("empty lookup succeeded")
	}
}

func TestLocateZeroWeight(t *testing.T) {
	db := NewDB()
	db.Add("a", Coord{Lat: 52.0, Lon: 4.0})
	c, ok := db.Locate(map[string]float64{"a": 0})
	if !ok || math.Abs(c.Lat-52.0) > 1e-9 {
		t.Errorf("zero-weight Locate = %+v, %v", c, ok)
	}
}

func TestServiceAnswersLookups(t *testing.T) {
	db := NewDB()
	db.Add("a", Coord{Lat: 52.0, Lon: 4.35})
	broker := pubsub.New()
	svc := NewService(db, broker)
	defer svc.Close()

	var results []msg.Map
	broker.Subscribe(channelResult, nil, func(ev pubsub.Event) {
		results = append(results, ev.Message.Map())
	})

	broker.Publish(channelLookup, msg.Map{"id": "r1", "aps": msg.Map{"a": 0.8}})
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0]["id"].(string) != "r1" || results[0]["lat"].(float64) != 52.0 {
		t.Errorf("result = %v", results[0])
	}

	// A miss still answers, with an error marker.
	broker.Publish(channelLookup, msg.Map{"id": "r2", "aps": msg.Map{"nope": 0.5}})
	if len(results) != 2 || results[1]["error"].(string) != "not-found" {
		t.Errorf("miss result = %v", results)
	}
}

func TestServiceClose(t *testing.T) {
	db := NewDB()
	broker := pubsub.New()
	svc := NewService(db, broker)
	svc.Close()
	answered := 0
	broker.Subscribe(channelResult, nil, func(pubsub.Event) { answered++ })
	broker.Publish(channelLookup, msg.Map{"id": "r1", "aps": msg.Map{}})
	if answered != 0 {
		t.Error("closed service answered a lookup")
	}
}
