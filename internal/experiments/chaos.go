package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pogo/internal/faultnet"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// ChaosConfig drives a seeded fault-injection run: a testbed of phones
// uploading to one collector (and receiving commands back) across a faultnet
// that drops, duplicates, corrupts, delays, partitions, and churns. The run
// is fully deterministic in the seed: everything is scheduled on a simulated
// clock and every random draw comes from faultnet's seeded RNG.
type ChaosConfig struct {
	Seed             int64
	Phones           int           // default 50
	MessagesPerPhone int           // phone → collector uploads; default 20
	CommandsPerPhone int           // collector → phone commands; default 3
	Window           time.Duration // traffic injection window; default 10 min
	Step             time.Duration // flush/advance granularity; default 5 s

	// Fault mix, applied to every link for the whole window.
	Drop      float64
	Duplicate float64
	Corrupt   float64
	MaxDelay  time.Duration

	// Churn: phones disconnect/reconnect with these mean up/down times
	// (exponentially distributed, seeded). Zero disables churn.
	MeanUp, MeanDown time.Duration

	// PartitionFrac of the phones are asymmetrically cut off from the
	// collector during the middle third of the window, then healed.
	PartitionFrac float64

	RetryAfter time.Duration // endpoint retransmission base; default 15 s

	// DrainIters caps the post-window drain loop (default 600 flush/advance
	// rounds — ample for every scenario in the matrix). Negative disables
	// the drain entirely: the flight-recorder smoke uses that to leave
	// messages genuinely in flight and force an audit failure.
	DrainIters int
	Obs        *obs.Registry
}

// ChaosResult reports a chaos run. Its Delivery audit is the headline: the
// hardened delivery path must pass it (Err() == nil) for every scenario in
// the matrix. The log is in arrival order.
type ChaosResult struct {
	Scenario         string `json:"scenario"`
	Seed             int64  `json:"seed"`
	Phones           int    `json:"phones"`
	MessagesPerPhone int    `json:"messages_per_phone"`
	CommandsPerPhone int    `json:"commands_per_phone"`
	Delivery
	Retries          int     `json:"retries"`
	CorruptDropped   int     `json:"corrupt_dropped"`
	NetSent          int     `json:"net_sent"`
	NetDropped       int     `json:"net_dropped"`
	NetDuplicated    int     `json:"net_duplicated"`
	NetCorrupted     int     `json:"net_corrupted"`
	NetDelayed       int     `json:"net_delayed"`
	PartitionDrops   int     `json:"net_partition_drops"`
	Disconnects      int     `json:"disconnects"`
	SimSeconds       float64 `json:"sim_seconds"`
	DeliveriesPerSec float64 `json:"deliveries_per_sim_second"`
}

// ChaosScenario pairs a name with its fault mix for the scenario matrix.
type ChaosScenario struct {
	Name   string
	Config ChaosConfig
}

// ChaosScenarios is the benchmark matrix at three fault levels. The same
// traffic pattern runs under progressively nastier networks; `pogo-bench -run
// chaos` reports how throughput and retry cost degrade while losses stay at
// zero, and testdata/scenarios/chaos.txtar (internal/scenario) pins each
// level's delivery-log hash.
func ChaosScenarios(seed int64) []ChaosScenario {
	return []ChaosScenario{
		{Name: "light", Config: ChaosConfig{
			Seed: seed,
			Drop: 0.05, Duplicate: 0.02, Corrupt: 0.01, MaxDelay: 50 * time.Millisecond,
		}},
		{Name: "medium", Config: ChaosConfig{
			Seed: seed,
			Drop: 0.20, Duplicate: 0.10, Corrupt: 0.05, MaxDelay: 200 * time.Millisecond,
			MeanUp: 3 * time.Minute, MeanDown: 20 * time.Second,
		}},
		{Name: "heavy", Config: ChaosConfig{
			Seed: seed,
			Drop: 0.40, Duplicate: 0.20, Corrupt: 0.10, MaxDelay: 500 * time.Millisecond,
			MeanUp: 90 * time.Second, MeanDown: 45 * time.Second,
			PartitionFrac: 0.2,
		}},
	}
}

// ChaosPhoneName is the canonical name of the i-th phone in a chaos world.
// The scenario DSL uses it to address entities (`kill phone03`).
func ChaosPhoneName(i int) string { return fmt.Sprintf("phone%02d", i) }

// ChaosCollectorName is the chaos world's single collector entity.
const ChaosCollectorName = "collector"

// ChaosWorld is a constructed-but-not-yet-run chaos testbed: the phones,
// collector, faultnet, and simulated clock of one scenario, exposed so the
// run can be driven round by round. experiments.Chaos drives it start to
// finish; the scenario DSL (internal/scenario) interleaves its own commands
// — partitions, kills, extra publishes — between rounds. Both produce
// bit-identical results for the same call schedule because every step is a
// method on this world.
//
// Entity index 0 is the collector and 1+i is phone i; the delivery log, the
// auditor and every by-name lookup share that one table.
type ChaosWorld struct {
	cfg       ChaosConfig
	clk       *vclock.Sim
	start     time.Time
	net       *faultnet.Net
	names     entityTable
	eps       []*transport.Endpoint // by entity index
	faults    []*faultnet.Fault     // by entity index; nil for the collector
	stops     []func()
	log       []deliveryEntry // arrival order
	audit     *deliveryAudit
	iters     int
	cut       int
	undrained int
}

// NewChaosWorld builds the testbed for one seeded scenario. Zero-valued
// config fields take the documented defaults. Construction order is part of
// the determinism contract: it must not change, or same-seed delivery logs
// (and the hashes chaos.txtar pins) change with it.
func NewChaosWorld(cfg ChaosConfig) *ChaosWorld {
	cfg.Phones = cmp.Or(cfg.Phones, 50)
	cfg.MessagesPerPhone = cmp.Or(cfg.MessagesPerPhone, 20)
	cfg.CommandsPerPhone = cmp.Or(cfg.CommandsPerPhone, 3)
	cfg.Window = cmp.Or(cfg.Window, 10*time.Minute)
	cfg.Step = cmp.Or(cfg.Step, 5*time.Second)
	cfg.RetryAfter = cmp.Or(cfg.RetryAfter, 15*time.Second)
	cfg.DrainIters = cmp.Or(cfg.DrainIters, 600)

	names := make([]string, 1+cfg.Phones)
	names[0] = ChaosCollectorName
	for i := 0; i < cfg.Phones; i++ {
		names[1+i] = ChaosPhoneName(i)
	}
	w := &ChaosWorld{cfg: cfg, names: newEntityTable(names)}
	// Every phone uploads to the one collector, entity 0.
	w.audit = newDeliveryAudit(1, 0, make([]int32, cfg.Phones), cfg.MessagesPerPhone, cfg.CommandsPerPhone)
	w.clk = vclock.NewSim()
	if cfg.Obs != nil {
		// Health evaluation rides the sampling path: observe() is called at
		// the end of every round/step, so alert state advances at
		// deterministic simulated instants. Deterministic mode mutes
		// RealTime (wall-clock) rules — the alert log must be a pure
		// function of the seed.
		alerts := cfg.Obs.Alerts()
		alerts.SetDeterministic(true)
		alerts.EnsureDefaultRules()
	}
	w.start = w.clk.Now()
	sb := transport.NewSwitchboard(w.clk)
	w.net = faultnet.New(w.clk, faultnet.Config{
		Seed: cfg.Seed,
		Drop: cfg.Drop, Duplicate: cfg.Duplicate, Corrupt: cfg.Corrupt,
		MaxDelay: cfg.MaxDelay,
		Obs:      cfg.Obs,
	})

	// record logs one delivery to entity recv and charges the auditor's
	// verdict on it to delivery_violations_total the moment it arrives, so
	// alert rules see a violation mid-run.
	record := func(recv int32) func(from, channel string, payload msg.Value) {
		return func(from, channel string, payload msg.Value) {
			e := deliveryEntry{
				atMs: int32(w.clk.Now().Sub(w.start) / time.Millisecond),
				recv: recv, send: w.names.lookup(from),
				n: payloadSeq(payload), ch: w.names.chanCode(channel, true),
			}
			w.log = append(w.log, e)
			switch w.audit.add(e) {
			case duplicate:
				w.cfg.Obs.Counter("delivery_violations_total", obs.L("kind", "duplicate")).Inc()
			case outOfOrder:
				w.cfg.Obs.Counter("delivery_violations_total", obs.L("kind", "out_of_order")).Inc()
			}
		}
	}

	// Every entity sits behind the same faultnet. The collector's port is
	// never churned, but its acks and commands suffer the fault mix too.
	w.eps = make([]*transport.Endpoint, len(names))
	w.faults = make([]*faultnet.Fault, len(names))
	for i, id := range names {
		if i > 0 {
			sb.Associate(id, ChaosCollectorName)
		}
		f := w.net.Wrap(sb.Port(id, nil))
		w.eps[i] = transport.NewEndpoint(f, store.OpenMemory(), w.clk, transport.EndpointConfig{
			RetryAfter: cfg.RetryAfter, BootID: "chaos-" + id, Obs: cfg.Obs,
			TraceSeed: cfg.Seed,
		})
		w.eps[i].OnMessage(record(int32(i)))
		if i > 0 {
			w.faults[i] = f
			if cfg.MeanUp > 0 && cfg.MeanDown > 0 {
				w.stops = append(w.stops, w.net.Churn(f, cfg.MeanUp, cfg.MeanDown))
			}
		}
	}

	w.iters = int(cfg.Window / cfg.Step)
	if w.iters < 1 {
		w.iters = 1
	}
	w.cut = int(float64(cfg.Phones) * cfg.PartitionFrac)
	return w
}

// Rounds is the number of injection rounds in the traffic window.
func (w *ChaosWorld) Rounds() int { return w.iters }

// Net exposes the world's fault domain (for scripted partitions and
// mid-run fault-mix changes).
func (w *ChaosWorld) Net() *faultnet.Net { return w.net }

// Config returns the world's (defaults-resolved) configuration.
func (w *ChaosWorld) Config() ChaosConfig { return w.cfg }

// EntityNames lists every entity in the world: the collector first, then the
// phones in index order.
func (w *ChaosWorld) EntityNames() []string { return slices.Clone(w.names.names) }

// endpoint returns the named entity's transport endpoint, or nil.
func (w *ChaosWorld) endpoint(name string) *transport.Endpoint {
	if i := w.names.lookup(name); i >= 0 {
		return w.eps[i]
	}
	return nil
}

// Fault returns the named phone's churnable fault wrapper, or nil (the
// collector has none).
func (w *ChaosWorld) Fault(name string) *faultnet.Fault {
	if i := w.names.lookup(name); i >= 0 {
		return w.faults[i]
	}
	return nil
}

// Enqueue queues one numbered message from one entity to another; it is
// recorded in the delivery log like scheduled traffic.
func (w *ChaosWorld) Enqueue(from, to, channel string, n int) error {
	ep := w.endpoint(from)
	if ep == nil {
		return fmt.Errorf("chaos: unknown entity %q", from)
	}
	ep.Enqueue(to, channel, msg.Map{"n": float64(n)})
	return nil
}

// FlushAll flushes every endpoint (phones in index order, collector last)
// and returns the total still-pending outbox entries.
func (w *ChaosWorld) FlushAll() int {
	pending := 0
	for _, ep := range w.eps[1:] {
		ep.Flush()
		pending += ep.Pending()
	}
	w.eps[0].Flush()
	return pending + w.eps[0].Pending()
}

// Pending is the total outbox entries across all endpoints, without flushing.
func (w *ChaosWorld) Pending() int {
	pending := 0
	for _, ep := range w.eps {
		pending += ep.Pending()
	}
	return pending
}

// observe publishes the world's health gauges and takes one registry sample
// at the current simulated instant, which also steps the alert engine. It
// adds no simulated events and sends no messages, so delivery logs — and
// their pinned SHA-256 baselines — are unaffected: alerting is a pure
// observer. No-op without a registry.
func (w *ChaosWorld) observe() {
	if w.cfg.Obs == nil {
		return
	}
	w.cfg.Obs.Gauge("outbox_pending").Set(float64(w.Pending()))
	w.cfg.Obs.Sample(w.clk.Now(), "chaos")
}

// RunRound executes injection round k: the scheduled partition/heal events
// (when PartitionFrac is set), this round's staggered enqueues, one flush of
// every endpoint, and one Step of simulated time.
func (w *ChaosWorld) RunRound(k int) {
	cfg := w.cfg
	if w.cut > 0 && k == w.iters/3 {
		for i := 0; i < w.cut; i++ {
			w.net.PartitionPair(w.names.names[1+i], ChaosCollectorName)
		}
	}
	if w.cut > 0 && k == 2*w.iters/3 {
		w.net.HealAll()
	}
	for i := 0; i < cfg.Phones; i++ {
		id := w.names.names[1+i]
		for j := 0; j < cfg.MessagesPerPhone; j++ {
			at := (j*w.iters)/cfg.MessagesPerPhone + i%5 // staggered across phones
			if at >= w.iters {
				at = w.iters - 1
			}
			if at == k {
				w.eps[1+i].Enqueue(ChaosCollectorName, "upload", msg.Map{"n": float64(j)})
			}
		}
		for j := 0; j < cfg.CommandsPerPhone; j++ {
			if (j*w.iters)/cfg.CommandsPerPhone == k {
				w.eps[0].Enqueue(id, "cmd", msg.Map{"n": float64(j)})
			}
		}
	}
	w.FlushAll()
	w.clk.Advance(cfg.Step)
	w.observe()
}

// Advance moves simulated time forward in Step increments, flushing every
// endpoint each step — scripted dead time between injection phases.
func (w *ChaosWorld) Advance(d time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += w.cfg.Step {
		w.FlushAll()
		w.clk.Advance(w.cfg.Step)
		w.observe()
	}
}

// Drain ends the run: churn stops, faults calm, partitions heal, and the
// flush/advance loop runs until outboxes empty or DrainIters rounds pass.
// Returns the entries still pending (0 on a healthy run).
func (w *ChaosWorld) Drain() int {
	cfg := w.cfg
	for _, stop := range w.stops {
		stop()
	}
	w.stops = nil
	w.net.Calm()
	w.net.HealAll()
	undrained := 0
	if cfg.DrainIters < 0 {
		// Drain disabled: count what is still in flight without flushing.
		undrained = w.Pending()
	}
	for k := 0; k < cfg.DrainIters; k++ {
		undrained = w.FlushAll()
		if undrained == 0 {
			break
		}
		w.clk.Advance(cfg.Step)
		w.observe()
	}
	w.clk.Advance(2 * cfg.MaxDelay) // let straggling delayed duplicates land
	w.undrained = undrained
	w.observe()
	return undrained
}

// Result reads the audit as it stands and summarizes the run, with the log
// in arrival order. It can be called repeatedly (after each scripted phase)
// — it only reads state.
func (w *ChaosWorld) Result(name string) ChaosResult {
	cfg := w.cfg
	res := ChaosResult{
		Scenario: name, Seed: cfg.Seed, Phones: cfg.Phones,
		MessagesPerPhone: cfg.MessagesPerPhone, CommandsPerPhone: cfg.CommandsPerPhone,
		Delivery: Delivery{
			Expected:  cfg.Phones * (cfg.MessagesPerPhone + cfg.CommandsPerPhone),
			Delivered: len(w.log),
			Undrained: w.undrained,
		},
	}
	for _, ep := range w.eps {
		st := ep.Stats()
		res.Retries += st.Retries
		res.CorruptDropped += st.CorruptDropped
	}
	ns := w.net.Stats()
	res.NetSent, res.NetDropped, res.NetDuplicated = ns.Sent, ns.Dropped, ns.Duplicated
	res.NetCorrupted, res.NetDelayed = ns.Corrupted, ns.Delayed
	res.PartitionDrops = ns.PartitionDrops
	res.Disconnects = ns.Disconnects

	res.Lost, res.Duplicated, res.OutOfOrder = w.audit.counts()

	res.SimSeconds = w.clk.Now().Sub(w.start).Seconds()
	if res.SimSeconds > 0 {
		res.DeliveriesPerSec = float64(res.Delivered) / res.SimSeconds
	}
	w.names.seal(&res.Delivery, w.log, false, true)
	return res
}

// Chaos runs one seeded scenario and audits every delivery. See ChaosConfig
// for the knobs; zero-valued fields take the documented defaults.
func Chaos(name string, cfg ChaosConfig) ChaosResult {
	w := NewChaosWorld(cfg)
	for k := 0; k < w.Rounds(); k++ {
		w.RunRound(k)
	}
	w.Drain()
	return w.Result(name)
}
