// Package fleet is Pogo's sharded discrete-event simulation engine: the
// machinery that lets one seeded experiment execute a multi-thousand-phone
// testbed across every core of the machine while staying bit-for-bit
// deterministic.
//
// A vclock.Sim is a single event loop, so every experiment before this
// package ran its whole fleet on one goroutine. The fleet engine partitions
// the simulated devices into K shards, each owning its own vclock.Sim and
// device stack, and executes the shards on worker goroutines in bounded time
// epochs. The epoch length is the engine's conservative lookahead: because
// every cross-shard message takes at least Lookahead of simulated time on the
// wire (the fabric's latency floor — the analogue of the switchboard /
// faultnet delay floor), no event executed inside an epoch can causally
// affect another shard within the same epoch. Shards therefore never need
// fine-grained synchronization; they only meet at epoch barriers.
//
// Cross-shard sends are staged into per-shard mailboxes during the epoch and
// merged at the barrier in (deliver-at, sender, sender-seq) order before
// being scheduled onto the destination shards' clocks. That merge order is a
// pure function of the simulation's own content — it mentions neither shard
// IDs nor goroutine interleaving — so a given seed produces byte-identical
// delivery logs regardless of the shard count or GOMAXPROCS. The determinism
// guarantee the chaos suite enforces for the single-loop simulator survives
// real parallelism.
//
// Ports implement the transport.Messenger shape (structurally, like
// faultnet.Messenger), so the full delivery stack — faultnet fault wrappers,
// transport endpoints with retransmission and FIFO dedup — runs unmodified
// on top of the fabric.
package fleet

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"pogo/internal/obs"
	"pogo/internal/vclock"
)

// Config sizes an Engine.
type Config struct {
	// Shards is the number of independent simulation partitions (and worker
	// goroutines). Default 1.
	Shards int
	// Lookahead is both the epoch length and the fabric's uniform delivery
	// latency. Every Port.Send arrives exactly Lookahead after the send
	// instant, which is what makes the conservative epoch barrier safe: no
	// message staged during an epoch can be due before the epoch ends.
	// Default 100 ms.
	Lookahead time.Duration
	// Start is the initial instant of every shard clock. Default
	// vclock.SimEpoch.
	Start time.Time
	// Obs, when non-nil, receives the engine's instruments: epoch count,
	// fabric/cross-shard traffic, per-epoch shard occupancy, and wall-clock
	// barrier stalls.
	Obs *obs.Registry
}

// Engine is a set of shards advancing in lockstep epochs. Construct with
// NewEngine, create ports, schedule the workload on the shard clocks, then
// call Run. The engine is not reusable after Run returns.
type Engine struct {
	cfg    Config
	shards []*Shard
	dir    map[string]*Port

	events     atomic.Int64
	fabricMsgs int64
	crossMsgs  int64
	dropped    int64
	epochs     int

	// Barrier-merge scratch, reused across epochs so merging allocates only
	// when an epoch stages more traffic than any epoch before it.
	mergeScratch []stagedMsg

	obsEpochs    *obs.Counter
	obsFabric    *obs.Counter
	obsCross     *obs.Counter
	obsDropped   *obs.Counter
	obsStall     *obs.Histogram
	obsOccupancy *obs.Histogram
}

// NewEngine returns an engine with cfg.Shards empty shards.
func NewEngine(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 100 * time.Millisecond
	}
	if cfg.Start.IsZero() {
		cfg.Start = vclock.SimEpoch
	}
	e := &Engine{cfg: cfg, dir: make(map[string]*Port)}
	for i := 0; i < cfg.Shards; i++ {
		e.shards = append(e.shards, &Shard{
			eng: e,
			id:  i,
			clk: vclock.NewSimAt(cfg.Start),
		})
	}
	if reg := cfg.Obs; reg != nil {
		e.obsEpochs = reg.Counter("fleet_epochs_total")
		e.obsFabric = reg.Counter("fleet_fabric_messages_total")
		e.obsCross = reg.Counter("fleet_cross_shard_messages_total")
		e.obsDropped = reg.Counter("fleet_dropped_total")
		e.obsStall = reg.Histogram("fleet_barrier_stall_seconds", obs.DefBuckets)
		e.obsOccupancy = reg.Histogram("fleet_shard_epoch_events", obs.CountBuckets)
		for i := 0; i < cfg.Shards; i++ {
			e.shards[i].obsEvents = reg.Counter("fleet_shard_events_total", obs.L("shard", fmt.Sprintf("%d", e.shards[i].id)))
		}
	}
	return e
}

// Shard returns partition i. Shard state (its clock, the stacks built on its
// ports) must only be touched during setup, from that shard's own callbacks,
// or from a barrier callback — never from another shard's code.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// stagedMsg is one staged cross-fabric payload: the unit the barrier merge
// orders by (At, From, Seq).
type stagedMsg struct {
	At       time.Time // delivery instant: send time + Lookahead
	From, To string
	Seq      uint64 // per-sender send counter: the deterministic tiebreak
	Payload  []byte
}

// Shard is one simulation partition: a clock plus the entities built on it.
type Shard struct {
	eng *Engine
	id  int
	clk *vclock.Sim

	staged    []stagedMsg // written by this shard's worker, drained at barriers
	arena     []byte      // current payload slab; see copyPayload
	obsEvents *obs.Counter

	req  chan time.Time
	done chan epochReport
}

type epochReport struct {
	events int
	wall   time.Duration
}

// Clock returns the shard's simulated clock. Schedule workload callbacks on
// it during setup; during Run it advances in lockstep with the other shards.
func (s *Shard) Clock() *vclock.Sim { return s.clk }

// Port creates this shard's attachment point for identity id and registers
// it in the engine-wide directory. IDs must be unique across the engine.
func (s *Shard) Port(id string) *Port {
	p := &Port{shard: s, id: id}
	s.eng.dir[id] = p
	return p
}

// Port is one entity's connection to the cross-shard fabric. It implements
// the transport.Messenger / faultnet.Messenger shape: always online, with
// every Send staged into the owning shard's mailbox for delivery exactly
// Lookahead later. Methods must be called from the owning shard (or during
// setup / at a barrier), matching the engine's ownership discipline.
type Port struct {
	shard *Shard
	id    string
	seq   uint64

	onReceive  func(from string, payload []byte)
	onOnline   []func()
	onPresence []func(peer string, online bool)
}

// LocalID implements Messenger.
func (p *Port) LocalID() string { return p.id }

// Online implements Messenger; fabric ports are always attached. Churn and
// partitions are modeled by faultnet wrappers above the port.
func (p *Port) Online() bool { return true }

// arenaSlab is the size of a shard's payload slab. Copies are carved out of
// the current slab (one allocation per ~64 KiB of traffic instead of one per
// Send); a full slab is simply abandoned to the GC, which keeps it alive for
// exactly as long as any delivered payload still aliases it. Slabs are never
// reused, so receivers may retain payloads indefinitely.
const arenaSlab = 64 << 10

// copyPayload copies p into the shard's arena. Full-capacity subslices stop
// a receiver's append from bleeding into the next payload. Called only from
// the owning shard, so no locking.
func (s *Shard) copyPayload(p []byte) []byte {
	if len(p) >= arenaSlab/4 {
		return append([]byte(nil), p...) // oversized: give it its own allocation
	}
	if len(s.arena)+len(p) > cap(s.arena) {
		s.arena = make([]byte, 0, arenaSlab)
	}
	off := len(s.arena)
	s.arena = append(s.arena, p...)
	return s.arena[off : off+len(p) : off+len(p)]
}

// Send implements Messenger: the payload is copied and staged for delivery
// at now + Lookahead, the fabric's uniform latency. Locality is intentionally
// invisible — a same-shard destination pays the same latency and traverses
// the same barrier merge as a cross-shard one, so delivery timing and
// ordering are independent of how entities are partitioned.
func (p *Port) Send(to string, payload []byte) error {
	s := p.shard
	m := stagedMsg{
		At:      s.clk.Now().Add(s.eng.cfg.Lookahead),
		From:    p.id,
		To:      to,
		Seq:     p.seq,
		Payload: s.copyPayload(payload),
	}
	p.seq++
	s.staged = append(s.staged, m)
	return nil
}

// OnReceive implements Messenger.
func (p *Port) OnReceive(fn func(from string, payload []byte)) { p.onReceive = fn }

// OnOnline implements Messenger. Fabric ports never reconnect, so handlers
// are retained but only fired by faultnet churn wrappers above the port.
func (p *Port) OnOnline(fn func()) { p.onOnline = append(p.onOnline, fn) }

// OnPresence implements Messenger. Fleet rosters are static, so presence
// never fires.
func (p *Port) OnPresence(fn func(peer string, online bool)) {
	p.onPresence = append(p.onPresence, fn)
}

// Peers implements Messenger. A fleet port has no roster: its workload
// addresses peers by ID.
func (p *Port) Peers() []string { return nil }

func (p *Port) deliver(from string, payload []byte) {
	if p.onReceive != nil {
		p.onReceive(from, payload)
	}
}

// RunStats summarizes an Engine.Run.
type RunStats struct {
	Epochs     int
	Events     int64 // callbacks executed across all shards
	Fabric     int64 // payloads through the fabric
	CrossShard int64 // fabric payloads whose destination was another shard
	Dropped    int64 // payloads to unknown destinations
}

// Run advances all shards in lockstep epochs of Lookahead until the barrier
// callback reports done or maxSim simulated time has elapsed (whichever is
// first; maxSim <= 0 means no cap). The done callback runs on the Run caller
// while every worker is parked at the barrier, so it may safely inspect any
// shard's state; it receives the barrier instant.
func (e *Engine) Run(maxSim time.Duration, done func(now time.Time) bool) RunStats {
	for _, s := range e.shards {
		s.req = make(chan time.Time)
		s.done = make(chan epochReport)
		go s.work()
	}
	defer func() {
		for _, s := range e.shards {
			close(s.req)
		}
	}()

	now := e.cfg.Start
	end := time.Time{}
	if maxSim > 0 {
		end = now.Add(maxSim)
	}
	for {
		deadline := now.Add(e.cfg.Lookahead)
		for _, s := range e.shards {
			s.req <- deadline
		}
		minWall, maxWall := time.Duration(-1), time.Duration(0)
		for _, s := range e.shards {
			rep := <-s.done
			s.obsEvents.Add(int64(rep.events))
			e.events.Add(int64(rep.events))
			e.obsOccupancy.Observe(float64(rep.events))
			if minWall < 0 || rep.wall < minWall {
				minWall = rep.wall
			}
			if rep.wall > maxWall {
				maxWall = rep.wall
			}
		}
		// Barrier stall: how long the fastest shard idled waiting for the
		// slowest — the cost of load imbalance at this epoch.
		e.obsStall.Observe((maxWall - minWall).Seconds())
		now = deadline
		e.epochs++
		e.obsEpochs.Inc()
		e.merge(now, e.drainStaged())
		if done != nil && done(now) {
			break
		}
		if !end.IsZero() && !now.Before(end) {
			break
		}
	}
	return RunStats{
		Epochs:     e.epochs,
		Events:     e.events.Load(),
		Fabric:     e.fabricMsgs,
		CrossShard: e.crossMsgs,
		Dropped:    e.dropped,
	}
}

// work is a shard's worker loop: execute one epoch per request.
func (s *Shard) work() {
	for deadline := range s.req {
		t0 := time.Now()
		n := s.clk.RunUntil(deadline)
		s.done <- epochReport{events: n, wall: time.Since(t0)}
	}
}

// drainStaged empties every shard's mailbox into the engine's reusable merge
// scratch.
func (e *Engine) drainStaged() []stagedMsg {
	all := e.mergeScratch[:0]
	for _, s := range e.shards {
		all = append(all, s.staged...)
		s.staged = s.staged[:0]
	}
	e.mergeScratch = all
	return all
}

// merge schedules the barrier's staged deliveries onto the destination shards
// in (deliver-at, sender, sender-seq) order. The sort key never mentions
// shards, so the destination clocks see an identical insertion sequence — and
// therefore identical same-instant tiebreaks — whatever the partitioning.
// Runs at the barrier: every worker is parked, so touching all shard state is
// safe.
func (e *Engine) merge(now time.Time, all []stagedMsg) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.Seq < b.Seq
	})
	for _, m := range all {
		dst, ok := e.dir[m.To]
		if !ok {
			e.dropped++
			e.obsDropped.Inc()
			continue
		}
		e.fabricMsgs++
		e.obsFabric.Inc()
		if e.dir[m.From].shard != dst.shard {
			e.crossMsgs++
			e.obsCross.Inc()
		}
		m := m
		dst.shard.clk.Schedule(m.At.Sub(now), func() {
			dst.deliver(m.From, m.Payload)
		})
	}
}
