// Package obs is Pogo's observability substrate: a dependency-free metrics
// registry plus one message-lifecycle recorder, the SpanStore.
//
// The paper's evaluation (§5) rests on quantities — bytes uplinked, messages
// delivered, tail-sync hit rate, per-script resource cost — that the rest of
// the stack previously computed ad hoc. This package gives every layer one
// way to count them and one way to watch a message travel
// publish → enqueue → send → deliver → fanout.
//
// Design rules:
//
//   - Hot paths are lock-free: Counter/Gauge/Histogram updates are single
//     atomic operations. The registry's mutex is only taken at registration
//     (once per metric) and at snapshot time.
//   - Everything is nil-safe. A nil *Registry hands out nil instruments, and
//     every instrument method on a nil receiver is a no-op, so instrumented
//     packages never need an "is observability on?" branch.
//   - No timestamps are generated here. Callers pass instants from their own
//     clock (vclock.Sim in experiments), so traces are deterministic and
//     byte-for-byte reproducible across runs.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric (e.g. node=dev1).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64. All methods are safe on a nil
// receiver (no-ops), so uninstrumented code paths cost one pointer test.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 (atomic bit-pattern storage).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper-bound inclusive,
// with an implicit +Inf overflow bucket). Observations are two atomic adds
// plus a CAS for the running sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DefBuckets suit durations in seconds across the simulated stack's scales
// (milliseconds of wire latency up to the hour-scale flush intervals).
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600}

// CountBuckets suit small cardinalities: fanout sizes, batch sizes.
var CountBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 500, 1000}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. NaN observations are dropped: they cannot be
// bucketed meaningfully and would poison the running sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a consistent-enough copy of a histogram's state.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is +Inf
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the owning bucket, the same estimator Prometheus uses for
// histogram_quantile. Returns NaN for an empty histogram or q outside
// [0, 1]. When the quantile lands in the +Inf overflow bucket the largest
// finite bound is returned (there is no upper edge to interpolate toward).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Counts {
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(s.Bounds) { // +Inf bucket
				if len(s.Bounds) == 0 {
					return math.NaN()
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			within := rank - float64(cum)
			return lo + (hi-lo)*(within/float64(n))
		}
		cum += n
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Sub returns the histogram of observations made after prev was taken,
// assuming prev is an earlier snapshot of the same histogram. Used for
// windowed quantiles over the time-series store.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i]
		if i < len(prev.Counts) {
			out.Counts[i] -= prev.Counts[i]
		}
	}
	return out
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry holds named, labeled instruments plus the span store. The zero
// value is not usable; construct with NewRegistry. A nil *Registry is a valid
// "observability off" registry: it hands out nil instruments and a nil
// span store.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	meta       map[string]metricMeta // canonical key -> family name + labels
	collectors map[int]func()
	nextID     int
	spans      *SpanStore
	ledger     *Ledger
	series     *SeriesStore
	alerts     *AlertEngine
}

// metricMeta remembers the structured identity behind a canonical key so the
// Prometheus exposition can regroup series into families.
type metricMeta struct {
	name   string
	labels []Label // sorted by key
}

// NewRegistry returns an empty registry with an attached span store, ledger,
// and time-series store.
func NewRegistry() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		meta:       make(map[string]metricMeta),
		collectors: make(map[int]func()),
		spans:      NewSpanStore(DefaultSpanCapacity),
		ledger:     NewLedger(),
		series:     NewSeriesStore(DefaultSeriesCapacity),
	}
	// Registered lazily on first eviction; before that, /stats surfaces the
	// zero drop count through its dedicated tracing section.
	r.spans.OnDrop(func() { r.Counter("trace_dropped_spans").Inc() })
	r.spans.latencyFor = func(channel string) *Histogram {
		return r.Histogram("trace_delivery_latency_seconds", DeliveryLatencyBuckets, L("channel", channel))
	}
	return r
}

// recordMeta stores the family identity for a canonical key. Caller holds
// r.mu.
func (r *Registry) recordMeta(k, name string, labels []Label) {
	if _, ok := r.meta[k]; ok {
		return
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	r.meta[k] = metricMeta{name: name, labels: ls}
}

// key renders the canonical metric identity: name{k1=v1,k2=v2} with label
// keys sorted.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Key renders the canonical instrument identity — name{k1=v1,k2=v2} with
// label keys sorted — exactly as Snapshot keys its maps. External consumers
// (the scenario DSL's expect_metric, log scrapers) use it to look up a series
// without depending on label order.
func Key(name string, labels ...Label) string {
	return key(name, labels)
}

// Counter returns (registering on first use) the counter with this name and
// label set. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.recordMeta(k, name, labels)
	}
	return c
}

// CounterValue reads a counter's current value without registering it; 0
// when absent or on a nil registry.
func (r *Registry) CounterValue(name string, labels ...Label) int64 {
	if r == nil {
		return 0
	}
	k := key(name, labels)
	r.mu.Lock()
	c := r.counters[k]
	r.mu.Unlock()
	return c.Value()
}

// Gauge returns (registering on first use) the gauge with this name and
// label set. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
		r.recordMeta(k, name, labels)
	}
	return g
}

// Histogram returns (registering on first use) the histogram with this name
// and label set. bounds apply only at first registration. Returns nil on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram(bounds)
		r.hists[k] = h
		r.recordMeta(k, name, labels)
	}
	return h
}

// Spans returns the registry's causal span store (nil on a nil registry; a
// nil store is a valid no-op recorder).
func (r *Registry) Spans() *SpanStore {
	if r == nil {
		return nil
	}
	return r.spans
}

// Ledger returns the registry's per-entity resource ledger (nil on a nil
// registry; a nil ledger hands out nil Meters).
func (r *Registry) Ledger() *Ledger {
	if r == nil {
		return nil
	}
	return r.ledger
}

// Meter is shorthand for Ledger().Meter: the charging handle for one
// (device, script, topic) entity. Nil-safe end to end.
func (r *Registry) Meter(device, script, topic string) *Meter {
	return r.Ledger().Meter(device, script, topic)
}

// Series returns the registry's time-series store (nil on a nil registry).
func (r *Registry) Series() *SeriesStore {
	if r == nil {
		return nil
	}
	return r.series
}

// Collect runs the registered collect hooks without building a snapshot.
// Components whose hooks push deltas into the ledger call this before
// cancelling the hook so the final partial interval is booked.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	ids := make([]int, 0, len(r.collectors))
	for id := range r.collectors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	hooks := make([]func(), 0, len(ids))
	for _, id := range ids {
		hooks = append(hooks, r.collectors[id])
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// OnCollect registers fn to run before every Snapshot — components use it to
// sync pull-style values (per-script usage gauges) into the registry. The
// returned cancel removes the hook; components must cancel before teardown.
func (r *Registry) OnCollect(fn func()) (cancel func()) {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.collectors[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.collectors, id)
		r.mu.Unlock()
	}
}

// Snapshot is a point-in-time copy of every instrument.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot runs the collect hooks, then copies all instruments. Returns an
// empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	// Hooks run outside r.mu (they may register/set instruments), in
	// registration order so any deltas they book are order-deterministic.
	r.Collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}
