// Package faultnet is Pogo's deterministic fault-injection network layer.
//
// The paper's end-to-end acknowledgement scheme (§4.6) exists because real
// deployments lose messages constantly: TCP sessions go stale when phones hop
// between wireless interfaces, switchboard deliveries race reconnects, and
// phones churn on and off the network for hours. This package turns those
// failure modes into a composable, *seeded* wrapper around any messenger, so
// robustness tests and the chaos harness can replay the exact same disaster
// from a single int64.
//
// A Net wraps messengers (the in-memory switchboard's ports, or any other
// implementation of the Messenger shape) with:
//
//   - probabilistic payload drop (the stale-TCP silent loss),
//   - payload duplication (retransmit races),
//   - payload corruption (a byte flipped in flight),
//   - uniform delay jitter, which also produces reordering,
//   - asymmetric partitions (A can reach B while B cannot reach A),
//   - phone churn: disconnect → reconnect cycles with fresh sessions.
//
// Every random decision is drawn from one seeded RNG and every delayed
// delivery is scheduled on the injected vclock, so when the clock is a
// vclock.Sim the entire fault schedule is bit-for-bit reproducible.
//
// The package deliberately does not import internal/transport: Messenger
// mirrors transport.Messenger structurally, so a *transport.Port satisfies
// faultnet.Messenger and a *faultnet.Fault satisfies transport.Messenger
// without an import cycle (which also lets internal/xmpp tests use the
// TCPProxy in this package).
package faultnet

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"pogo/internal/obs"
	"pogo/internal/vclock"
)

// errOffline reports a send attempted while the fault wrapper is churned
// offline (mirrors transport.ErrOffline semantics).
var errOffline = errors.New("faultnet: offline")

// Messenger is the structural mirror of transport.Messenger — the unreliable
// datagram layer faultnet wraps and re-exposes.
type Messenger interface {
	LocalID() string
	Online() bool
	Send(to string, payload []byte) error
	OnReceive(fn func(from string, payload []byte))
	OnOnline(fn func())
	OnPresence(fn func(peer string, online bool))
	Peers() []string
}

// Config sets the fault probabilities and the seed they are drawn from.
type Config struct {
	// Seed initialises the fault RNG; identical seeds (plus identical call
	// schedules, which a vclock.Sim guarantees) replay identical faults.
	Seed int64
	// Drop is the probability a payload is silently lost in flight.
	Drop float64
	// Duplicate is the probability a payload is delivered twice.
	Duplicate float64
	// Corrupt is the probability one payload byte is flipped in flight.
	Corrupt float64
	// MaxDelay adds uniform extra latency in [0, MaxDelay] to every payload;
	// unequal delays reorder deliveries. 0 disables jitter.
	MaxDelay time.Duration
	// Lean draws faults from a compact splitmix64 source (8 bytes of state)
	// instead of math/rand's default source (~5 KB of lagged-Fibonacci table
	// per Net). The fleet experiment creates one Net per simulated phone, so
	// at 100k phones the default source alone would cost ~500 MB. The stream
	// is equally deterministic but DIFFERENT from the default source for the
	// same seed, so flipping this flag changes any pinned fault schedule.
	Lean bool
	// Obs, when non-nil, receives the fault counters
	// (faultnet_*_total) so chaos runs are observable.
	Obs *obs.Registry
}

// Stats counts the faults a Net has injected.
type Stats struct {
	Sent           int // payloads offered to the fault layer (excl. partition drops)
	Dropped        int // lost to the Drop probability
	Duplicated     int // extra copies delivered
	Corrupted      int // payloads with a flipped byte
	Delayed        int // payloads given non-zero extra latency
	PartitionDrops int // lost to an active partition
	ChurnDrops     int // inbound payloads discarded while churned offline
	Disconnects    int // churn disconnect events
	Reconnects     int // churn reconnect events
}

// Net is a fault domain: a seeded RNG, a partition table, and the shared
// counters for every messenger wrapped in it. All methods are goroutine-safe;
// under a vclock.Sim all activity is single-threaded and deterministic.
type Net struct {
	clk vclock.Clock

	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	blocked map[string]map[string]bool // from → to → blocked
	stats   Stats

	// Instruments; nil (no-op) when cfg.Obs is nil.
	obsDropped     *obs.Counter
	obsDuplicated  *obs.Counter
	obsCorrupted   *obs.Counter
	obsPartitioned *obs.Counter
	obsChurnDrops  *obs.Counter
	obsDisconnects *obs.Counter
	obsReconnects  *obs.Counter
}

// New returns a fault domain on the given clock.
func New(clk vclock.Clock, cfg Config) *Net {
	src := rand.NewSource(cfg.Seed)
	if cfg.Lean {
		src = newLeanSource(cfg.Seed)
	}
	n := &Net{
		clk:     clk,
		cfg:     cfg,
		rng:     rand.New(src),
		blocked: make(map[string]map[string]bool),
	}
	if reg := cfg.Obs; reg != nil {
		n.obsDropped = reg.Counter("faultnet_dropped_total")
		n.obsDuplicated = reg.Counter("faultnet_duplicated_total")
		n.obsCorrupted = reg.Counter("faultnet_corrupted_total")
		n.obsPartitioned = reg.Counter("faultnet_partition_drops_total")
		n.obsChurnDrops = reg.Counter("faultnet_churn_drops_total")
		n.obsDisconnects = reg.Counter("faultnet_disconnects_total")
		n.obsReconnects = reg.Counter("faultnet_reconnects_total")
	}
	return n
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Calm zeroes all fault probabilities (partitions and churn are controlled
// separately). The chaos harness calls it for the drain phase, where eventual
// connectivity must become actual connectivity.
func (n *Net) Calm() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Drop, n.cfg.Duplicate, n.cfg.Corrupt, n.cfg.MaxDelay = 0, 0, 0, 0
}

// SetFaults replaces the live fault probabilities mid-run, leaving the RNG
// stream, partitions, churn cycles, and counters untouched. The scenario DSL
// uses it (`inject_fault drop=0.3 delay=200ms`) to script weather changes —
// a carrier outage clearing up, a congested cell — without rebuilding the
// world. Calm is equivalent to SetFaults(0, 0, 0, 0).
func (n *Net) SetFaults(drop, duplicate, corrupt float64, maxDelay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Drop, n.cfg.Duplicate, n.cfg.Corrupt, n.cfg.MaxDelay = drop, duplicate, corrupt, maxDelay
}

// Partition blocks payloads flowing from → to. It is asymmetric: the reverse
// direction stays open unless blocked separately.
func (n *Net) Partition(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.blocked[from] == nil {
		n.blocked[from] = make(map[string]bool)
	}
	n.blocked[from][to] = true
}

// PartitionPair blocks both directions between a and b.
func (n *Net) PartitionPair(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}

// Heal unblocks the from → to direction.
func (n *Net) Heal(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked[from], to)
}

// HealAll removes every partition.
func (n *Net) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[string]map[string]bool)
}

// Partitioned reports whether from → to is currently blocked.
func (n *Net) Partitioned(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.blocked[from][to]
}

// Wrap returns a fault-injecting messenger around m. The wrapper registers
// itself as m's receive and online handler; attach application handlers to
// the returned Fault, not to m.
func (n *Net) Wrap(m Messenger) *Fault {
	f := &Fault{net: n, inner: m}
	m.OnReceive(f.receiveInner)
	m.OnOnline(f.innerOnline)
	return f
}

// expDuration draws an exponentially distributed duration with the given
// mean, clamped to [1ms, 10×mean] to keep schedules sane.
func (n *Net) expDuration(mean time.Duration) time.Duration {
	n.mu.Lock()
	x := n.rng.ExpFloat64()
	n.mu.Unlock()
	d := time.Duration(x * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if max := 10 * mean; d > max {
		d = max
	}
	return d
}

// Churn starts a disconnect→reconnect cycle on f: after an exponential
// up-time with mean meanUp the fault disconnects, stays down an exponential
// down-time with mean meanDown, reconnects (a fresh session: OnOnline
// handlers fire), and repeats. The returned stop function ends the cycle and
// reconnects f if it is down.
func (n *Net) Churn(f *Fault, meanUp, meanDown time.Duration) (stop func()) {
	var st struct {
		sync.Mutex
		stopped bool
	}
	var schedule func(up bool)
	schedule = func(up bool) {
		mean := meanUp
		if !up {
			mean = meanDown
		}
		n.clk.AfterFunc(n.expDuration(mean), func() {
			st.Lock()
			stopped := st.stopped
			st.Unlock()
			if stopped {
				return
			}
			if up {
				f.Disconnect()
			} else {
				f.Reconnect()
			}
			schedule(!up)
		})
	}
	schedule(true)
	return func() {
		st.Lock()
		st.stopped = true
		st.Unlock()
		if f.isDown() {
			f.Reconnect()
		}
	}
}

// Fault is one messenger wrapped in a fault domain. It implements the same
// Messenger shape as the wrapped value (and therefore transport.Messenger).
type Fault struct {
	net   *Net
	inner Messenger

	mu         sync.Mutex
	down       bool
	onReceive  func(from string, payload []byte)
	onOnline   []func()
	onPresence []func(peer string, online bool)
}

var _ Messenger = (*Fault)(nil)

// LocalID implements Messenger.
func (f *Fault) LocalID() string { return f.inner.LocalID() }

// Online implements Messenger: offline while churned down.
func (f *Fault) Online() bool {
	f.mu.Lock()
	down := f.down
	f.mu.Unlock()
	return !down && f.inner.Online()
}

// isDown reports whether the fault is currently churned offline.
func (f *Fault) isDown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

// Disconnect churns the node offline: sends fail with errOffline and inbound
// payloads are discarded, exactly like a session whose TCP connection went
// stale underneath it.
func (f *Fault) Disconnect() {
	f.mu.Lock()
	was := f.down
	f.down = true
	f.mu.Unlock()
	if !was {
		n := f.net
		n.mu.Lock()
		n.stats.Disconnects++
		n.mu.Unlock()
		n.obsDisconnects.Inc()
	}
}

// Reconnect brings a churned node back with a fresh session: OnOnline
// handlers fire so the transport endpoint replays its outbox.
func (f *Fault) Reconnect() {
	f.mu.Lock()
	was := f.down
	f.down = false
	handlers := append([]func(){}, f.onOnline...)
	f.mu.Unlock()
	if !was {
		return
	}
	n := f.net
	n.mu.Lock()
	n.stats.Reconnects++
	n.mu.Unlock()
	n.obsReconnects.Inc()
	if f.inner.Online() {
		for _, fn := range handlers {
			fn()
		}
	}
}

// Send implements Messenger, running the payload through the fault pipeline:
// partition check, drop, corrupt, duplicate, delay — in that fixed order so
// the RNG stream is stable for a given schedule.
func (f *Fault) Send(to string, payload []byte) error {
	if !f.Online() {
		return errOffline
	}
	n := f.net
	n.mu.Lock()
	if n.blocked[f.inner.LocalID()][to] {
		n.stats.PartitionDrops++
		n.mu.Unlock()
		n.obsPartitioned.Inc()
		return nil // silently lost, like any in-flight payload at a cut
	}
	n.stats.Sent++
	if n.cfg.Drop > 0 && n.rng.Float64() < n.cfg.Drop {
		n.stats.Dropped++
		n.mu.Unlock()
		n.obsDropped.Inc()
		return nil
	}
	corruptAt := -1
	if n.cfg.Corrupt > 0 && len(payload) > 0 && n.rng.Float64() < n.cfg.Corrupt {
		corruptAt = n.rng.Intn(len(payload))
		n.stats.Corrupted++
	}
	copies := 1
	if n.cfg.Duplicate > 0 && n.rng.Float64() < n.cfg.Duplicate {
		copies = 2
		n.stats.Duplicated++
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		if n.cfg.MaxDelay > 0 {
			delays[i] = time.Duration(n.rng.Int63n(int64(n.cfg.MaxDelay) + 1))
			if delays[i] > 0 {
				n.stats.Delayed++
			}
		}
	}
	n.mu.Unlock()
	if corruptAt >= 0 {
		n.obsCorrupted.Inc()
	}
	if copies > 1 {
		n.obsDuplicated.Inc()
	}

	for i := 0; i < copies; i++ {
		body := append([]byte(nil), payload...)
		if corruptAt >= 0 {
			body[corruptAt] ^= 0xff
		}
		if delays[i] == 0 {
			if err := f.inner.Send(to, body); err != nil && i == 0 {
				return err
			}
			continue
		}
		n.clk.AfterFunc(delays[i], func() {
			// Fire-and-forget: by delivery time the inner link may have
			// gone away, which is precisely the loss being modeled.
			_ = f.inner.Send(to, body)
		})
	}
	return nil
}

// receiveInner gates inbound payloads on churn state.
func (f *Fault) receiveInner(from string, payload []byte) {
	f.mu.Lock()
	down := f.down
	fn := f.onReceive
	f.mu.Unlock()
	if down {
		n := f.net
		n.mu.Lock()
		n.stats.ChurnDrops++
		n.mu.Unlock()
		n.obsChurnDrops.Inc()
		return
	}
	if fn != nil {
		fn(from, payload)
	}
}

// innerOnline propagates the wrapped messenger's connectivity events unless
// the fault is churned down.
func (f *Fault) innerOnline() {
	f.mu.Lock()
	down := f.down
	handlers := append([]func(){}, f.onOnline...)
	f.mu.Unlock()
	if down {
		return
	}
	for _, fn := range handlers {
		fn()
	}
}

// OnReceive implements Messenger.
func (f *Fault) OnReceive(fn func(from string, payload []byte)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onReceive = fn
}

// OnOnline implements Messenger.
func (f *Fault) OnOnline(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onOnline = append(f.onOnline, fn)
}

// OnPresence implements Messenger, delegating to the wrapped messenger.
func (f *Fault) OnPresence(fn func(peer string, online bool)) {
	f.inner.OnPresence(fn)
}

// Peers implements Messenger.
func (f *Fault) Peers() []string { return f.inner.Peers() }
