// Package sensors implements Pogo's sensor manager and the sensors used in
// the paper's experiments.
//
// Sensors live inside a sensor manager (§4.2) and publish to — and query
// subscriptions from — all script contexts on the node. A sensor observes
// the set of active subscriptions on its channel across every context: when
// nobody listens it shuts down entirely, and otherwise it samples at the
// highest rate any subscriber requested via the {interval: ms} subscription
// parameter (§3.5, §4.3), so two experiments requesting Wi-Fi scans share a
// single scan schedule.
package sensors

import (
	"slices"
	"sync"
	"time"

	"pogo/internal/msg"
	"pogo/internal/pubsub"
	"pogo/internal/sched"
	"pogo/internal/vclock"
)

// Sensor is a unit managed by the Manager. reconfigure is called whenever
// the subscription picture may have changed; implementations query the
// manager for demand and adjust their sampling. close releases resources.
type Sensor interface {
	channelName() string
	reconfigure()
	close()
}

// Manager connects sensors to the brokers of every context on the node.
type Manager struct {
	sched *sched.Scheduler

	mu sync.Mutex
	// brokers are the attached brokers in attachment order, copy-on-write:
	// AddBroker and RemoveBroker replace the slice, never write into it, so
	// a reader takes it under mu and iterates it outside.
	brokers  []attached
	sensors  []Sensor
	byChan   map[string][]Sensor
	closed   bool
	onChange func(channel string)
}

// attached is one attached broker and the cancel of its demand watcher.
type attached struct {
	b      *pubsub.Broker
	cancel func()
}

// NewManager returns an empty manager using the given scheduler for all
// sensor sampling work.
func NewManager(s *sched.Scheduler) *Manager {
	return &Manager{
		sched:  s,
		byChan: make(map[string][]Sensor),
	}
}

// scheduler returns the manager's scheduler; sensors use it so sampling
// holds wake locks correctly.
func (m *Manager) scheduler() *sched.Scheduler { return m.sched }

// clock returns the scheduler's clock.
func (m *Manager) clock() vclock.Clock { return m.sched.Clock() }

// Register adds a sensor and immediately reconfigures it against current
// demand.
func (m *Manager) Register(s Sensor) {
	m.mu.Lock()
	m.sensors = append(m.sensors, s)
	m.byChan[s.channelName()] = append(m.byChan[s.channelName()], s)
	m.mu.Unlock()
	s.reconfigure()
}

// AddBroker attaches a context's broker: sensor output will be published to
// it, and its subscriptions count as demand.
func (m *Manager) AddBroker(b *pubsub.Broker) {
	cancel := b.OnSubscriptionChange("", m.channelChanged)
	m.mu.Lock()
	m.brokers = append(slices.Clip(m.brokers), attached{b, cancel})
	m.mu.Unlock()
	m.reconfigureAll()
}

// RemoveBroker detaches a context's broker (context torn down).
func (m *Manager) RemoveBroker(b *pubsub.Broker) {
	m.mu.Lock()
	var cancel func()
	if i := slices.IndexFunc(m.brokers, func(a attached) bool { return a.b == b }); i >= 0 {
		cancel = m.brokers[i].cancel
		m.brokers = slices.Delete(slices.Clone(m.brokers), i, i+1)
	}
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	m.reconfigureAll()
}

func (m *Manager) channelChanged(channel string) {
	m.mu.Lock()
	sensors := make([]Sensor, len(m.byChan[channel]))
	copy(sensors, m.byChan[channel])
	m.mu.Unlock()
	for _, s := range sensors {
		s.reconfigure()
	}
}

func (m *Manager) reconfigureAll() {
	m.mu.Lock()
	sensors := make([]Sensor, len(m.sensors))
	copy(sensors, m.sensors)
	m.mu.Unlock()
	for _, s := range sensors {
		s.reconfigure()
	}
}

// publish delivers a sensor message to every attached broker, in
// attachment order. The message is encoded once, and every broker's
// subscribers read the same bytes (PublishRaw delivers what Publish would).
func (m *Manager) publish(channel string, message msg.Map) {
	m.mu.Lock()
	brokers := m.brokers
	m.mu.Unlock()
	if len(brokers) == 0 {
		return
	}
	r, err := msg.Encode(message)
	if err != nil {
		return
	}
	for _, a := range brokers {
		a.b.PublishRaw(channel, r, false)
	}
}

// subscriptions aggregates the active subscriptions on a channel across all
// attached brokers.
func (m *Manager) subscriptions(channel string) []pubsub.SubscriptionInfo {
	m.mu.Lock()
	brokers := m.brokers
	m.mu.Unlock()
	var out []pubsub.SubscriptionInfo
	for _, a := range brokers {
		out = append(out, a.b.Subscriptions(channel)...)
	}
	return out
}

// Close shuts down every sensor and detaches all brokers.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	sensors := m.sensors
	m.sensors = nil
	brokers := m.brokers
	m.brokers = nil
	m.mu.Unlock()
	for _, a := range brokers {
		a.cancel()
	}
	for _, s := range sensors {
		s.close()
	}
}

// demandInterval inspects the active subscriptions on channel and returns
// the effective sampling interval: the minimum requested {interval} across
// subscribers (fallback def for subscribers with no interval parameter),
// clamped below by min. The boolean reports whether there is any demand.
func (m *Manager) demandInterval(channel string, def, min time.Duration) (time.Duration, bool) {
	subs := m.subscriptions(channel)
	if len(subs) == 0 {
		return 0, false
	}
	best := time.Duration(0)
	for _, s := range subs {
		iv := def
		if ms, ok := msg.GetNumber(s.Params, "interval"); ok && ms > 0 {
			iv = time.Duration(ms) * time.Millisecond
		}
		if best == 0 || iv < best {
			best = iv
		}
	}
	if best < min {
		best = min
	}
	return best, true
}

// periodicCore provides the shared start/stop/interval machinery of sampling
// sensors. Embedding types supply the sample function and channel.
type periodicCore struct {
	mgr      *Manager
	channel  string
	def, min time.Duration
	sample   func()

	mu       sync.Mutex
	interval time.Duration
	stop     func()
	closed   bool
}

func (p *periodicCore) channelName() string { return p.channel }

// reconfigure starts, stops, or re-periods the sampling loop based on
// current demand.
func (p *periodicCore) reconfigure() {
	iv, want := p.mgr.demandInterval(p.channel, p.def, p.min)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if !want {
		if p.stop != nil {
			p.stop()
			p.stop = nil
			p.interval = 0
		}
		return
	}
	if p.stop != nil && p.interval == iv {
		return // already running at the right rate
	}
	if p.stop != nil {
		p.stop()
	}
	p.interval = iv
	p.stop = p.mgr.scheduler().Every(iv, p.channel, func() {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		p.sample()
	})
}

// close stops sampling permanently.
func (p *periodicCore) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.stop != nil {
		p.stop()
		p.stop = nil
	}
}
