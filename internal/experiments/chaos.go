package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
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

const chaosCollector = "collector"

func chaosPhoneName(i int) string { return fmt.Sprintf("phone%02d", i) }

// ChaosPhoneName is the canonical name of the i-th phone in a chaos world.
// The scenario DSL uses it to address entities (`kill phone03`).
func ChaosPhoneName(i int) string { return chaosPhoneName(i) }

// ChaosCollectorName is the chaos world's single collector entity.
const ChaosCollectorName = chaosCollector

// ChaosWorld is a constructed-but-not-yet-run chaos testbed: the phones,
// collector, faultnet, and simulated clock of one scenario, exposed so the
// run can be driven round by round. experiments.Chaos drives it start to
// finish; the scenario DSL (internal/scenario) interleaves its own commands
// — partitions, kills, extra publishes — between rounds. Both produce
// bit-identical results for the same call schedule because every step is a
// method on this world.
type ChaosWorld struct {
	cfg       ChaosConfig
	clk       *vclock.Sim
	start     time.Time
	net       *faultnet.Net
	coll      *transport.Endpoint
	phones    []*transport.Endpoint
	faults    []*faultnet.Fault
	stops     []func()
	log       []string
	iters     int
	cut       int
	undrained int

	// Online exactly-once bookkeeping: the end-of-run audit catches
	// violations after the fact, but alert rules need them as they happen.
	// Keyed like auditChaosLog streams (receiver|sender|channel).
	seenSeqs map[string]map[int]bool
	lastSeq  map[string]int
}

// NewChaosWorld builds the testbed for one seeded scenario. Zero-valued
// config fields take the documented defaults. Construction order is part of
// the determinism contract: it must not change, or same-seed delivery logs
// (and the hashes chaos.txtar pins) change with it.
func NewChaosWorld(cfg ChaosConfig) *ChaosWorld {
	if cfg.Phones == 0 {
		cfg.Phones = 50
	}
	if cfg.MessagesPerPhone == 0 {
		cfg.MessagesPerPhone = 20
	}
	if cfg.CommandsPerPhone == 0 {
		cfg.CommandsPerPhone = 3
	}
	if cfg.Window == 0 {
		cfg.Window = 10 * time.Minute
	}
	if cfg.Step == 0 {
		cfg.Step = 5 * time.Second
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 15 * time.Second
	}
	if cfg.DrainIters == 0 {
		cfg.DrainIters = 600
	}

	w := &ChaosWorld{cfg: cfg, seenSeqs: make(map[string]map[int]bool), lastSeq: make(map[string]int)}
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

	record := func(at string) func(from, channel string, payload msg.Value) {
		return func(from, channel string, payload msg.Value) {
			n := -1
			if m, ok := payload.(msg.Map); ok {
				if f, ok := m["n"].(float64); ok {
					n = int(f)
				}
			}
			w.log = append(w.log, fmt.Sprintf("%s <- %s %s %d", at, from, channel, n))
			w.trackDelivery(at, from, channel, n)
		}
	}

	// The collector: a plain (never-churned) port behind the same faultnet,
	// so its acks and commands suffer the fault mix too.
	collFault := w.net.Wrap(sb.Port(chaosCollector, nil))
	w.coll = transport.NewEndpoint(collFault, store.OpenMemory(), w.clk, transport.EndpointConfig{
		RetryAfter: cfg.RetryAfter, BootID: "chaos-" + chaosCollector, Obs: cfg.Obs,
		TraceSeed: cfg.Seed,
	})
	w.coll.OnMessage(record(chaosCollector))

	w.phones = make([]*transport.Endpoint, cfg.Phones)
	w.faults = make([]*faultnet.Fault, cfg.Phones)
	w.stops = make([]func(), 0, cfg.Phones)
	for i := 0; i < cfg.Phones; i++ {
		id := chaosPhoneName(i)
		sb.Associate(id, chaosCollector)
		f := w.net.Wrap(sb.Port(id, nil))
		w.faults[i] = f
		ep := transport.NewEndpoint(f, store.OpenMemory(), w.clk, transport.EndpointConfig{
			RetryAfter: cfg.RetryAfter, BootID: "chaos-" + id, Obs: cfg.Obs,
			TraceSeed: cfg.Seed,
		})
		ep.OnMessage(record(id))
		w.phones[i] = ep
		if cfg.MeanUp > 0 && cfg.MeanDown > 0 {
			w.stops = append(w.stops, w.net.Churn(f, cfg.MeanUp, cfg.MeanDown))
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

// Clock exposes the world's simulated clock.
func (w *ChaosWorld) Clock() *vclock.Sim { return w.clk }

// Net exposes the world's fault domain (for scripted partitions and
// mid-run fault-mix changes).
func (w *ChaosWorld) Net() *faultnet.Net { return w.net }

// Config returns the world's (defaults-resolved) configuration.
func (w *ChaosWorld) Config() ChaosConfig { return w.cfg }

// EntityNames lists every entity in the world: the collector first, then the
// phones in index order.
func (w *ChaosWorld) EntityNames() []string {
	out := make([]string, 0, len(w.phones)+1)
	out = append(out, chaosCollector)
	for i := range w.phones {
		out = append(out, chaosPhoneName(i))
	}
	return out
}

// Endpoint returns the named entity's transport endpoint, or nil.
func (w *ChaosWorld) Endpoint(name string) *transport.Endpoint {
	if name == chaosCollector {
		return w.coll
	}
	for i := range w.phones {
		if chaosPhoneName(i) == name {
			return w.phones[i]
		}
	}
	return nil
}

// Fault returns the named entity's fault wrapper (phones only have churnable
// faults; the collector's wrapper is returned too), or nil.
func (w *ChaosWorld) Fault(name string) *faultnet.Fault {
	for i := range w.phones {
		if chaosPhoneName(i) == name {
			return w.faults[i]
		}
	}
	return nil
}

// Enqueue queues one numbered message from one entity to another; it is
// recorded in the delivery log like scheduled traffic.
func (w *ChaosWorld) Enqueue(from, to, channel string, n int) error {
	ep := w.Endpoint(from)
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
	for _, ep := range w.phones {
		ep.Flush()
		pending += ep.Pending()
	}
	w.coll.Flush()
	pending += w.coll.Pending()
	return pending
}

// Pending is the total outbox entries across all endpoints, without flushing.
func (w *ChaosWorld) Pending() int {
	pending := 0
	for _, ep := range w.phones {
		pending += ep.Pending()
	}
	return pending + w.coll.Pending()
}

// trackDelivery updates the online exactly-once bookkeeping for one recorded
// delivery and charges violations to the delivery_violations_total counters.
// Pure bookkeeping: it never touches the clock, the net, or the log.
func (w *ChaosWorld) trackDelivery(at, from, channel string, n int) {
	if n < 0 {
		return
	}
	key := at + "|" + from + "|" + channel
	seen := w.seenSeqs[key]
	if seen == nil {
		seen = make(map[int]bool)
		w.seenSeqs[key] = seen
		w.lastSeq[key] = -1
	}
	if seen[n] {
		w.cfg.Obs.Counter("delivery_violations_total", obs.L("kind", "duplicate")).Inc()
	} else if n < w.lastSeq[key] {
		w.cfg.Obs.Counter("delivery_violations_total", obs.L("kind", "out_of_order")).Inc()
	}
	seen[n] = true
	if n > w.lastSeq[key] {
		w.lastSeq[key] = n
	}
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
			w.net.PartitionPair(chaosPhoneName(i), chaosCollector)
		}
	}
	if w.cut > 0 && k == 2*w.iters/3 {
		w.net.HealAll()
	}
	for i := 0; i < cfg.Phones; i++ {
		id := chaosPhoneName(i)
		for j := 0; j < cfg.MessagesPerPhone; j++ {
			at := (j*w.iters)/cfg.MessagesPerPhone + i%5 // staggered across phones
			if at >= w.iters {
				at = w.iters - 1
			}
			if at == k {
				w.phones[i].Enqueue(chaosCollector, "upload", msg.Map{"n": float64(j)})
			}
		}
		for j := 0; j < cfg.CommandsPerPhone; j++ {
			if (j*w.iters)/cfg.CommandsPerPhone == k {
				w.coll.Enqueue(id, "cmd", msg.Map{"n": float64(j)})
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
		for _, ep := range w.phones {
			undrained += ep.Pending()
		}
		undrained += w.coll.Pending()
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

// Result audits the delivery log as it stands and summarizes the run. It can
// be called repeatedly (after each scripted phase) — it only reads state.
func (w *ChaosWorld) Result(name string) ChaosResult {
	cfg := w.cfg
	res := ChaosResult{
		Scenario: name, Seed: cfg.Seed, Phones: cfg.Phones,
		MessagesPerPhone: cfg.MessagesPerPhone, CommandsPerPhone: cfg.CommandsPerPhone,
		Delivery: Delivery{
			Expected:  cfg.Phones * (cfg.MessagesPerPhone + cfg.CommandsPerPhone),
			Delivered: len(w.log),
			Undrained: w.undrained,
			Log:       w.log,
		},
	}
	for _, ep := range w.phones {
		st := ep.Stats()
		res.Retries += st.Retries
		res.CorruptDropped += st.CorruptDropped
	}
	cst := w.coll.Stats()
	res.Retries += cst.Retries
	res.CorruptDropped += cst.CorruptDropped
	ns := w.net.Stats()
	res.NetSent, res.NetDropped, res.NetDuplicated = ns.Sent, ns.Dropped, ns.Duplicated
	res.NetCorrupted, res.NetDelayed = ns.Corrupted, ns.Delayed
	res.PartitionDrops = ns.PartitionDrops
	res.Disconnects = ns.Disconnects

	res.Lost, res.Duplicated, res.OutOfOrder = auditChaosLog(w.log, cfg)

	res.SimSeconds = w.clk.Now().Sub(w.start).Seconds()
	if res.SimSeconds > 0 {
		res.DeliveriesPerSec = float64(res.Delivered) / res.SimSeconds
	}
	sum := sha256.Sum256([]byte(strings.Join(w.log, "\n")))
	res.LogSHA256 = hex.EncodeToString(sum[:])
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

// auditChaosLog checks every (receiver, sender, channel) stream for
// exactly-once FIFO delivery of sequences 0..n-1.
func auditChaosLog(log []string, cfg ChaosConfig) (lost, dup, ooo int) {
	streams := make(map[string][]int)
	for _, line := range log {
		var at, from, channel string
		var n int
		if _, err := fmt.Sscanf(line, "%s <- %s %s %d", &at, &from, &channel, &n); err != nil {
			continue
		}
		key := at + "|" + from + "|" + channel
		streams[key] = append(streams[key], n)
	}
	audit := func(got []int, want int) {
		counts := make(map[int]int)
		for _, s := range got {
			counts[s]++
		}
		for s := 0; s < want; s++ {
			switch c := counts[s]; {
			case c == 0:
				lost++
			case c > 1:
				dup += c - 1
			}
		}
		if !sort.IntsAreSorted(got) {
			ooo++
		}
	}
	for i := 0; i < cfg.Phones; i++ {
		id := chaosPhoneName(i)
		audit(streams[chaosCollector+"|"+id+"|upload"], cfg.MessagesPerPhone)
		audit(streams[id+"|"+chaosCollector+"|cmd"], cfg.CommandsPerPhone)
	}
	return lost, dup, ooo
}
