package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"time"

	"pogo/internal/faultnet"
	"pogo/internal/fleet"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// FleetConfig drives the parallel-fleet scenario: the chaos workload —
// phones uploading to collectors through seeded fault injection, collectors
// commanding phones back, the hardened transport recovering everything —
// scaled to thousands of phones and executed across fleet.Engine shards.
//
// Determinism is partition-proof by construction: every entity draws its
// faults from its own RNG seeded by (Seed, name), every payload crosses the
// fabric with the same fixed latency whether or not sender and receiver
// share a shard, and phone→collector assignment depends only on the phone
// index. The per-seed delivery log is therefore byte-identical at any Shards
// and any GOMAXPROCS — `pogo-bench -run fleet` enforces exactly that.
type FleetConfig struct {
	Seed   int64
	Phones int // default 2000
	Shards int // default 4
	// Collectors is the size of the collector cluster phones are hashed
	// across. It must not default from Shards (that would change the
	// workload's shape with the partitioning); default Phones/128, clamped
	// to [1, 16].
	Collectors       int
	MessagesPerPhone int           // phone → collector uploads; default 20
	CommandsPerPhone int           // collector → phone commands; default 3
	Window           time.Duration // traffic injection window; default 5 min
	Step             time.Duration // per-entity flush period; default 5 s

	// Fault mix, per entity, drawn from per-entity seeded RNGs.
	Drop      float64
	Duplicate float64
	Corrupt   float64
	MaxDelay  time.Duration

	// Latency is the fabric delivery latency and the engine's conservative
	// lookahead (= epoch length). Default 100 ms.
	Latency    time.Duration
	RetryAfter time.Duration // endpoint retransmission base; default 15 s
	DrainLimit time.Duration // extra simulated time to recover losses; default 15 min

	// KeepLog materializes FleetResult.Log (one formatted line per delivery).
	// Off by default: at 100k phones the textual log costs more than the
	// simulated fleet, and the hash is computed without it.
	KeepLog bool

	// Obs, when non-nil, instruments the engine, every endpoint and every
	// fault wrapper, and has its alert rules evaluated at epoch barriers.
	Obs *obs.Registry
}

// FleetScenario is the canonical benchmark mix for `pogo-bench -run fleet`:
// light chaos-style faults over the given fleet size.
func FleetScenario(seed int64, phones, shards int) FleetConfig {
	return FleetConfig{
		Seed:   seed,
		Phones: phones,
		Shards: shards,
		Drop:   0.05, Duplicate: 0.02, Corrupt: 0.01,
		MaxDelay: 50 * time.Millisecond,
	}
}

// fleetNormalize applies the documented defaults in place.
func fleetNormalize(cfg *FleetConfig) {
	if cfg.Phones == 0 {
		cfg.Phones = 2000
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Collectors == 0 {
		cfg.Collectors = cfg.Phones / 128
		if cfg.Collectors < 1 {
			cfg.Collectors = 1
		}
		if cfg.Collectors > 16 {
			cfg.Collectors = 16
		}
	}
	if cfg.MessagesPerPhone == 0 {
		cfg.MessagesPerPhone = 20
	}
	if cfg.CommandsPerPhone == 0 {
		cfg.CommandsPerPhone = 3
	}
	if cfg.Window == 0 {
		cfg.Window = 5 * time.Minute
	}
	if cfg.Step == 0 {
		cfg.Step = 5 * time.Second
	}
	if cfg.Latency == 0 {
		cfg.Latency = 100 * time.Millisecond
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 15 * time.Second
	}
	if cfg.DrainLimit == 0 {
		cfg.DrainLimit = 15 * time.Minute
	}
}

// FleetResult reports one fleet run. Its Delivery audit must pass — the
// delivery guarantee is unchanged from the chaos suite — and LogSHA256 must
// be identical across shard counts and GOMAXPROCS for a given seed. The log
// is in content order (see fleetSealLog).
type FleetResult struct {
	Seed       int64 `json:"seed"`
	Phones     int   `json:"phones"`
	Collectors int   `json:"collectors"`
	Shards     int   `json:"shards"`
	Delivery
	Epochs         int   `json:"epochs"`
	Events         int64 `json:"events"`
	FabricMessages int64 `json:"fabric_messages"`
	CrossShard     int64 `json:"cross_shard_messages"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	// CPUSeconds is the user+system rusage consumed by the run. On a box with
	// fewer cores than shards the wall-clock speedup is flat, but cpu_seconds
	// still attributes the work: wall ≈ cpu / min(cores, shards).
	CPUSeconds       float64 `json:"cpu_seconds"`
	EventsPerSec     float64 `json:"events_per_wall_second"`
	DeliveriesPerSec float64 `json:"deliveries_per_wall_second"`
	// AllocsPerDelivery / BytesPerDelivery are runtime.MemStats deltas over
	// the simulation run divided by delivered messages — machine-independent,
	// so they are comparable across baselines in a way wall-clock is not.
	AllocsPerDelivery float64 `json:"allocs_per_delivery"`
	BytesPerDelivery  float64 `json:"bytes_per_delivery"`
	// BytesPerPhone is the live-heap cost of building the fleet (post-GC
	// HeapAlloc delta across world construction) divided by Phones: the
	// per-device memory footprint the 100k-phone diet is budgeted against.
	BytesPerPhone float64 `json:"fleet_bytes_per_phone"`
}

func fleetPhoneName(i int) string     { return fmt.Sprintf("phone%04d", i) }
func fleetCollectorName(i int) string { return fmt.Sprintf("collector%02d", i) }

// fleetEntitySeed derives a per-entity RNG seed from the world seed, so an
// entity's fault schedule depends only on its own name and traffic — never
// on which shard it landed in or who shares that shard.
func fleetEntitySeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// fleetCollectorOf assigns phone i to a collector by hashing its name:
// shard-count-invariant (it never sees Shards) yet decorrelated from the
// round-robin shard placement, so most phone↔collector pairs genuinely cross
// shards.
func fleetCollectorOf(i, collectors int) int {
	h := fnv.New64a()
	h.Write([]byte(fleetPhoneName(i)))
	return int(h.Sum64() % uint64(collectors))
}

// fleetNames precomputes the naming and placement tables every part of a run
// agrees on: entity index → name (phones first, then collectors), the
// lexicographic rank of each name (so the compact log sorts exactly like the
// old string log did — note "phone10000" < "phone9999"), the reverse name →
// index map used on the delivery path, and each phone's collector. One table
// serves the whole run.
type fleetNames struct {
	phones, collectors, shards int
	names                      []string
	rank                       []int32
	index                      map[string]int32
	collOf                     []int32
}

func newFleetNames(cfg *FleetConfig) *fleetNames {
	fn := &fleetNames{phones: cfg.Phones, collectors: cfg.Collectors, shards: cfg.Shards}
	fn.names = make([]string, cfg.Phones+cfg.Collectors)
	for i := 0; i < cfg.Phones; i++ {
		fn.names[i] = fleetPhoneName(i)
	}
	for c := 0; c < cfg.Collectors; c++ {
		fn.names[cfg.Phones+c] = fleetCollectorName(c)
	}
	fn.index = make(map[string]int32, len(fn.names))
	for i, s := range fn.names {
		fn.index[s] = int32(i)
	}
	ord := make([]int32, len(fn.names))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int { return strings.Compare(fn.names[a], fn.names[b]) })
	fn.rank = make([]int32, len(fn.names))
	for r, i := range ord {
		fn.rank[i] = int32(r)
	}
	fn.collOf = make([]int32, cfg.Phones)
	for i := range fn.collOf {
		fn.collOf[i] = int32(fleetCollectorOf(i, cfg.Collectors))
	}
	return fn
}

func (fn *fleetNames) lookup(name string) int32 {
	if i, ok := fn.index[name]; ok {
		return i
	}
	return -1
}

func (fn *fleetNames) rankOf(i int32) int32 {
	if i >= 0 && int(i) < len(fn.rank) {
		return fn.rank[i]
	}
	return -1
}

func (fn *fleetNames) phoneShard(i int) int      { return i % fn.shards }
func (fn *fleetNames) collShard(c int) int       { return c % fn.shards }
func (fn *fleetNames) collIndex(c int) int32     { return int32(fn.phones + c) }
func (fn *fleetNames) collName(c int) string     { return fn.names[fn.phones+c] }
func (fn *fleetNames) phoneName(i int) string    { return fn.names[i] }
func (fn *fleetNames) entityName(i int32) string { return fn.names[i] }

// fleetGen is one self-rescheduling traffic stream: phone i's uploads, or
// the command stream a collector sends phone i. The old builder scheduled
// one AfterFunc closure per message up front — ~23 live closures plus timer
// events per phone for the whole run. A generator is one 80-byte struct in a
// contiguous slice holding one reusable callback that re-arms itself via the
// pooled Schedule path, so pending traffic costs O(streams), not O(messages).
type fleetGen struct {
	ep          *transport.Endpoint
	clk         *vclock.Sim
	to          string
	ch          string
	first, gap  time.Duration
	next, total int32
	fire        func()
}

func (g *fleetGen) run() {
	g.ep.Enqueue(g.to, g.ch, msg.Map{"n": float64(g.next)})
	g.next++
	if g.next < g.total {
		g.clk.Schedule(g.gap, g.fire)
	}
}

// fleetWorld is a built (but not yet run) fleet: the engine, the entities
// living on its shards, and the per-shard compact delivery logs.
type fleetWorld struct {
	eng       *fleet.Engine
	start     time.Time
	logs      []*fleetLog // indexed by shard
	endpoints []*transport.Endpoint
	gens      []fleetGen
}

func (w *fleetWorld) delivered() int {
	n := 0
	for _, l := range w.logs {
		n += l.n
	}
	return n
}

func (w *fleetWorld) pending() int {
	n := 0
	for _, ep := range w.endpoints {
		n += ep.Pending()
	}
	return n
}

// buildFleetWorld wires every entity. The construction order — collectors,
// then phones, then generator arming — fixes the relative order of any two
// insertions into the same shard's clock (the only order that matters for
// same-instant tiebreaks) independently of the shard count.
func buildFleetWorld(cfg *FleetConfig, names *fleetNames) *fleetWorld {
	w := &fleetWorld{}
	w.eng = fleet.NewEngine(fleet.Config{
		Shards:    cfg.Shards,
		Lookahead: cfg.Latency,
		Obs:       cfg.Obs,
	})
	w.start = w.eng.Shard(0).Clock().Now()
	w.logs = make([]*fleetLog, cfg.Shards)
	for i := range w.logs {
		w.logs[i] = &fleetLog{}
	}

	// build wires one entity: port → per-entity seeded fault wrapper (lean
	// RNG: 8 bytes of state instead of math/rand's ~5 KB table) → reliable
	// endpoint, plus its periodic flush tick and end-of-window calm, all on
	// the pooled Schedule path.
	build := func(g int, idx int32, tickPhase time.Duration) *transport.Endpoint {
		name := names.entityName(idx)
		sh := w.eng.Shard(g)
		clk := sh.Clock()
		net := faultnet.New(clk, faultnet.Config{
			Seed: fleetEntitySeed(cfg.Seed, name),
			Drop: cfg.Drop, Duplicate: cfg.Duplicate, Corrupt: cfg.Corrupt,
			MaxDelay: cfg.MaxDelay,
			Lean:     true,
			Obs:      cfg.Obs,
		})
		f := net.Wrap(sh.Port(name))
		ep := transport.NewEndpoint(f, store.OpenMemory(), clk, transport.EndpointConfig{
			RetryAfter: cfg.RetryAfter, BootID: "fleet-" + name, Obs: cfg.Obs,
			TraceSeed: cfg.Seed,
		})
		log := w.logs[g]
		ep.OnMessage(func(from, channel string, payload msg.Value) {
			n := int32(-1)
			if m, ok := payload.(msg.Raw); ok {
				if f, ok := msg.GetNumber(m, "n"); ok {
					n = int32(f)
				}
			}
			log.add(fleetEntryC{
				atMs: int32(clk.Now().Sub(w.start) / time.Millisecond),
				recv: idx, send: names.lookup(from),
				n: n, ch: fleetChanCode(channel),
			})
		})
		var tick func()
		tick = func() {
			clk.Schedule(cfg.Step, tick)
			ep.Flush()
		}
		clk.Schedule(tickPhase, tick)
		clk.Schedule(cfg.Window, net.Calm)
		w.endpoints = append(w.endpoints, ep)
		return ep
	}

	collectors := make([]*transport.Endpoint, cfg.Collectors)
	for c := 0; c < cfg.Collectors; c++ {
		collectors[c] = build(names.collShard(c), names.collIndex(c),
			cfg.Step*time.Duration(1+c%16)/16)
	}

	w.gens = make([]fleetGen, 0, 2*cfg.Phones)
	msgGap := cfg.Window / time.Duration(cfg.MessagesPerPhone)
	cmdGap := cfg.Window / time.Duration(cfg.CommandsPerPhone)
	for i := 0; i < cfg.Phones; i++ {
		ci := int(names.collOf[i])
		ep := build(names.phoneShard(i), int32(i), cfg.Step*time.Duration(1+i%64)/64)
		// Stagger each phone inside the per-message slot by a hash of its
		// index — same spread at any shard count.
		phase := time.Duration(int64(i)*7919%997) * msgGap / 997
		w.gens = append(w.gens, fleetGen{
			ep: ep, clk: w.eng.Shard(names.phoneShard(i)).Clock(),
			to: names.collName(ci), ch: "upload",
			first: phase, gap: msgGap, total: int32(cfg.MessagesPerPhone),
		})
		cphase := time.Duration(int64(i)*104729%997) * cmdGap / 997
		w.gens = append(w.gens, fleetGen{
			ep: collectors[ci], clk: w.eng.Shard(names.collShard(ci)).Clock(),
			to: names.phoneName(i), ch: "cmd",
			first: cphase, gap: cmdGap, total: int32(cfg.CommandsPerPhone),
		})
	}
	// Arm the generators only after the slice stopped growing: fire closures
	// hold pointers into it.
	for k := range w.gens {
		g := &w.gens[k]
		g.fire = g.run
		g.clk.Schedule(g.first, g.fire)
	}
	return w
}

// Fleet runs the sharded parallel fleet scenario. See FleetConfig for the
// knobs; zero-valued fields take the documented defaults.
func Fleet(cfg FleetConfig) FleetResult {
	fleetNormalize(&cfg)
	if cfg.Obs != nil {
		// Same contract as the chaos world: alert evaluation happens at
		// deterministic simulated instants (epoch barriers below), and
		// RealTime rules — barrier_stall is wall-clock — are muted so the
		// alert log stays a pure function of the seed at any shard count.
		alerts := cfg.Obs.Alerts()
		alerts.SetDeterministic(true)
		alerts.EnsureDefaultRules()
	}
	heap0 := obs.HeapLiveBytes()
	names := newFleetNames(&cfg)
	w := buildFleetWorld(&cfg, names)
	buildBytes := heapDelta(heap0)

	d := Delivery{Expected: cfg.Phones * (cfg.MessagesPerPhone + cfg.CommandsPerPhone)}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	cpu0 := cpuSeconds()
	wall0 := time.Now()
	// Health sampling rides the epoch barrier: the done callback runs with
	// every shard worker parked, so counter totals are identical across runs
	// and shard counts. Per-epoch sampling would be wasteful (and the engine
	// runs thousands of epochs), so sample on a coarse simulated cadence.
	const obsEvery = 30 * time.Second
	nextObs := w.start.Add(obsEvery)
	stats := w.eng.Run(cfg.Window+cfg.DrainLimit, func(now time.Time) bool {
		delivered := w.delivered()
		if cfg.Obs != nil && !now.Before(nextObs) {
			cfg.Obs.Gauge("outbox_pending").Set(float64(w.pending()))
			cfg.Obs.Sample(now, "fleet")
			for !now.Before(nextObs) {
				nextObs = nextObs.Add(obsEvery)
			}
		}
		return delivered >= d.Expected && w.pending() == 0
	})
	wall := time.Since(wall0)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&memAfter)

	fleetSealLog(&d, &cfg, names, w.logs, cfg.KeepLog)
	d.Undrained = w.pending()
	res := FleetResult{
		Seed: cfg.Seed, Phones: cfg.Phones, Collectors: cfg.Collectors, Shards: cfg.Shards,
		Delivery: d,
		Epochs:   stats.Epochs, Events: stats.Events,
		FabricMessages: stats.Fabric, CrossShard: stats.CrossShard,
	}
	res.SimSeconds = w.eng.Shard(0).Clock().Now().Sub(w.start).Seconds()
	res.WallSeconds = wall.Seconds()
	res.CPUSeconds = cpu
	if res.WallSeconds > 0 {
		res.EventsPerSec = float64(stats.Events) / res.WallSeconds
		res.DeliveriesPerSec = float64(res.Delivered) / res.WallSeconds
	}
	if res.Delivered > 0 {
		res.AllocsPerDelivery = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Delivered)
		res.BytesPerDelivery = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(res.Delivered)
	}
	res.BytesPerPhone = float64(buildBytes) / float64(cfg.Phones)
	if cfg.Obs != nil {
		cfg.Obs.Gauge("fleet_build_heap_bytes").Set(float64(buildBytes))
		cfg.Obs.Gauge("fleet_bytes_per_phone").Set(res.BytesPerPhone)
	}
	return res
}

// heapDelta returns the live-heap growth since the before measurement,
// clamped at zero (a collection can shrink unrelated memory in between).
func heapDelta(before uint64) uint64 {
	after := obs.HeapLiveBytes()
	if after < before {
		return 0
	}
	return after - before
}
