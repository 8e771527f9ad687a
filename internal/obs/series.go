package obs

import (
	"sync"
	"time"

	"pogo/internal/vclock"
)

// defaultSeriesCapacity bounds the ring of retained samples. At the default
// 30 s experiment cadence this holds 8.5 simulated hours; live servers at
// 5 s hold ~85 minutes.
const defaultSeriesCapacity = 1024

// seriesSample is one registry snapshot at an instant. Timestamps come from
// the caller's clock (vclock.Sim in experiments), never from the wall, so a
// seeded run produces byte-identical sample streams.
type seriesSample struct {
	At         time.Time                    `json:"at"`
	Tag        string                       `json:"tag,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// SeriesStore is a fixed-capacity ring of SeriesSamples with windowed
// rate and quantile queries. A nil *SeriesStore ignores appends and returns
// empty results.
type SeriesStore struct {
	mu      sync.Mutex
	ring    []seriesSample
	start   int // index of oldest sample
	n       int
	dropped uint64
}

// newSeriesStore returns an empty store retaining up to capacity samples
// (defaultSeriesCapacity if capacity <= 0).
func newSeriesStore(capacity int) *SeriesStore {
	if capacity <= 0 {
		capacity = defaultSeriesCapacity
	}
	return &SeriesStore{ring: make([]seriesSample, capacity)}
}

// append records one sample, evicting the oldest when full.
func (s *SeriesStore) append(sample seriesSample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < len(s.ring) {
		s.ring[(s.start+s.n)%len(s.ring)] = sample
		s.n++
		return
	}
	s.ring[s.start] = sample
	s.start = (s.start + 1) % len(s.ring)
	s.dropped++
}

// samples returns the retained samples, oldest first.
func (s *SeriesStore) samples() []seriesSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]seriesSample, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.start+i)%len(s.ring)])
	}
	return out
}

// droppedSamples returns how many samples have been evicted since creation.
func (s *SeriesStore) droppedSamples() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// StartSampling snapshots the registry every interval on clk, appending to
// the registry's series store with the given tag. Returns a stop function.
// On a simulated clock the callback runs in deterministic event order, so
// two same-seed runs record identical streams.
func StartSampling(clk vclock.Clock, r *Registry, interval time.Duration, tag string) (stop func()) {
	if r == nil || clk == nil || interval <= 0 {
		return func() {}
	}
	var (
		mu      sync.Mutex
		stopped bool
		timer   vclock.Timer
	)
	var tick func()
	tick = func() {
		mu.Lock()
		if stopped {
			mu.Unlock()
			return
		}
		mu.Unlock()
		r.Sample(clk.Now(), tag)
		mu.Lock()
		if !stopped {
			timer = clk.AfterFunc(interval, tick)
		}
		mu.Unlock()
	}
	mu.Lock()
	timer = clk.AfterFunc(interval, tick)
	mu.Unlock()
	return func() {
		mu.Lock()
		stopped = true
		t := timer
		mu.Unlock()
		if t != nil {
			t.Stop()
		}
	}
}

// Sample takes one snapshot (running collect hooks) at the given instant and
// appends it to the series store, then evaluates the alert rules against it.
// On a simulated clock the alert state machines therefore advance at
// deterministic instants, making the alert log a pure function of the seed.
// No-op on a nil registry.
func (r *Registry) Sample(at time.Time, tag string) {
	if r == nil {
		return
	}
	snap := r.Snapshot()
	r.series.append(seriesSample{
		At:         at,
		Tag:        tag,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	})
	r.mu.Lock()
	alerts := r.alerts
	r.mu.Unlock()
	alerts.evaluate(at, snap)
}
