package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Entity identifies who spent a resource. The three axes mirror the paper's
// evaluation: Device is the phone (or node) that did the work, Script is the
// sandboxed experiment script that asked for it (§3's per-experiment
// deadlines, Table 4's clustering script), Topic is the pub/sub channel the
// traffic rode (Table 3/Figure 4 attribute bytes to channels). Any axis may
// be empty: (device,"","") is whole-device accounting, (device,script,"") is
// per-script, (device,"",topic) is per-channel.
type Entity struct {
	Device string `json:"device"`
	Script string `json:"script,omitempty"`
	Topic  string `json:"topic,omitempty"`
}

// account is the mutable per-entity ledger row. Integer quantities are
// lock-free; the energy-by-state map takes a small mutex (energy charging
// happens on radio state transitions and collect hooks, not per message).
type account struct {
	uplink     atomic.Int64
	downlink   atomic.Int64
	messages   atomic.Int64
	wakeMS     atomic.Int64
	steps      atomic.Int64
	deadlines  atomic.Int64
	tailHits   atomic.Int64
	tailMisses atomic.Int64

	mu     sync.Mutex
	energy map[string]float64 // joules by radio/power state
}

// Meter is a charging handle for one (device, script, topic) entity. All
// methods are safe on a nil receiver, so call sites never branch on whether
// accounting is enabled.
type Meter struct {
	a *account
}

// AddEnergy charges joules spent in the named radio/power state (e.g. "dch",
// "fach", "cpu", "base").
func (m *Meter) AddEnergy(state string, joules float64) {
	if m == nil || joules == 0 {
		return
	}
	m.a.mu.Lock()
	m.a.energy[state] += joules
	m.a.mu.Unlock()
}

// AddUplink charges n bytes sent toward the server.
func (m *Meter) AddUplink(n int64) {
	if m == nil {
		return
	}
	m.a.uplink.Add(n)
}

// AddDownlink charges n bytes received from the server.
func (m *Meter) AddDownlink(n int64) {
	if m == nil {
		return
	}
	m.a.downlink.Add(n)
}

// AddMessages charges n pub/sub messages.
func (m *Meter) AddMessages(n int64) {
	if m == nil {
		return
	}
	m.a.messages.Add(n)
}

// AddWake charges ms milliseconds of CPU-awake time caused by this entity
// (alarm linger, scheduled work).
func (m *Meter) AddWake(ms int64) {
	if m == nil {
		return
	}
	m.a.wakeMS.Add(ms)
}

// AddSteps charges n interpreter steps.
func (m *Meter) AddSteps(n int64) {
	if m == nil {
		return
	}
	m.a.steps.Add(n)
}

// AddDeadlineExceeded counts n script calls killed by the execution budget
// (the paper's per-call deadline, §4.5).
func (m *Meter) AddDeadlineExceeded(n int64) {
	if m == nil {
		return
	}
	m.a.deadlines.Add(n)
}

// AddTailHit counts a flush that piggybacked on an existing 3G tail (§4.7).
func (m *Meter) AddTailHit(n int64) {
	if m == nil {
		return
	}
	m.a.tailHits.Add(n)
}

// AddTailMiss counts a flush that had to power the radio up on its own.
func (m *Meter) AddTailMiss(n int64) {
	if m == nil {
		return
	}
	m.a.tailMisses.Add(n)
}

// Ledger maps entities to accounts. Obtain one from Registry.Ledger; a nil
// *Ledger hands out nil Meters and empty snapshots.
type Ledger struct {
	mu       sync.Mutex
	accounts map[Entity]*account
}

// newLedger returns an empty ledger. Most callers want Registry.Ledger
// instead, so the accounts ride the same snapshot/exposition path as the
// metrics.
func newLedger() *Ledger {
	return &Ledger{accounts: make(map[Entity]*account)}
}

// Meter returns (registering on first use) the charging handle for the
// entity. Returns nil on a nil ledger.
func (l *Ledger) Meter(device, script, topic string) *Meter {
	if l == nil {
		return nil
	}
	e := Entity{Device: device, Script: script, Topic: topic}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.accounts[e]
	if !ok {
		a = &account{energy: make(map[string]float64)}
		l.accounts[e] = a
	}
	return &Meter{a: a}
}

// AccountSnapshot is one ledger row at a point in time.
type AccountSnapshot struct {
	Entity
	Energy           map[string]float64 `json:"energy_joules,omitempty"`
	EnergyTotal      float64            `json:"energy_total_joules"`
	UplinkBytes      int64              `json:"uplink_bytes"`
	DownlinkBytes    int64              `json:"downlink_bytes"`
	Messages         int64              `json:"messages"`
	WakeMS           int64              `json:"wake_ms"`
	Steps            int64              `json:"steps"`
	DeadlineExceeded int64              `json:"deadline_exceeded"`
	TailHits         int64              `json:"tail_hits"`
	TailMisses       int64              `json:"tail_misses"`
}

// Snapshot copies every account, sorted by (device, script, topic) so two
// identical runs serialize byte-for-byte. EnergyTotal is summed over states
// in sorted order for the same reason (float addition is order-sensitive).
func (l *Ledger) Snapshot() []AccountSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	entities := make([]Entity, 0, len(l.accounts))
	for e := range l.accounts {
		entities = append(entities, e)
	}
	accts := make(map[Entity]*account, len(l.accounts))
	for e, a := range l.accounts {
		accts[e] = a
	}
	l.mu.Unlock()
	sort.Slice(entities, func(i, j int) bool {
		a, b := entities[i], entities[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Script != b.Script {
			return a.Script < b.Script
		}
		return a.Topic < b.Topic
	})
	out := make([]AccountSnapshot, 0, len(entities))
	for _, e := range entities {
		a := accts[e]
		s := AccountSnapshot{
			Entity:           e,
			UplinkBytes:      a.uplink.Load(),
			DownlinkBytes:    a.downlink.Load(),
			Messages:         a.messages.Load(),
			WakeMS:           a.wakeMS.Load(),
			Steps:            a.steps.Load(),
			DeadlineExceeded: a.deadlines.Load(),
			TailHits:         a.tailHits.Load(),
			TailMisses:       a.tailMisses.Load(),
		}
		a.mu.Lock()
		if len(a.energy) > 0 {
			s.Energy = make(map[string]float64, len(a.energy))
			states := make([]string, 0, len(a.energy))
			for st := range a.energy {
				states = append(states, st)
			}
			sort.Strings(states)
			for _, st := range states {
				s.Energy[st] = a.energy[st]
				s.EnergyTotal += a.energy[st]
			}
		}
		a.mu.Unlock()
		out = append(out, s)
	}
	return out
}
