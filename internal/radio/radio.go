// Package radio models the device's wireless interfaces: a 3G cellular modem
// with RRC state behaviour (ramp-up, DCH, FACH, tail timers — §4.7 and
// Figure 3 of the paper), a Wi-Fi radio, traffic counters equivalent to
// Android's TrafficStats, and a connectivity manager that reports interface
// handovers (§4.6).
//
// Tail energy is an artefact of the radio resource control protocol: after a
// transmission the modem lingers in the high-power DCH state and then in the
// medium-power FACH state, for durations set by the carrier. The three
// carrier profiles below are calibrated to reproduce the relative shape of
// the paper's Table 3 (KPN has by far the longest tail; Figure 3 shows
// b→c ≈ 6 s of DCH and c→d ≈ 53.5 s of FACH on KPN).
package radio

import (
	"sync"
	"time"

	"pogo/internal/energy"
	"pogo/internal/vclock"
)

// State is an RRC state of the 3G modem.
type State int

// Modem states. Transmitting is DCH with data in flight.
const (
	Idle State = iota + 1
	RampUp
	promoting
	Transmitting
	DCHTail
	FACHTail
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case RampUp:
		return "RAMP"
	case promoting:
		return "PROMOTE"
	case Transmitting:
		return "TX"
	case DCHTail:
		return "DCH"
	case FACHTail:
		return "FACH"
	default:
		return "?"
	}
}

// CarrierProfile holds the RRC timing and power parameters of one mobile
// carrier. Durations are the dwell times in each state; powers are the draw
// while in that state.
type CarrierProfile struct {
	Name string
	// RampUp is the channel-negotiation delay from Idle before bytes flow.
	RampUp time.Duration
	// Promote is the FACH→DCH promotion delay.
	Promote time.Duration
	// DCHTailTime is how long the modem stays in DCH after the last byte
	// (Figure 3: b→c).
	DCHTailTime time.Duration
	// FACHTailTime is how long the modem stays in FACH before returning to
	// idle (Figure 3: c→d).
	FACHTailTime time.Duration

	PowerRamp float64 // W during ramp-up / promotion
	PowerDCH  float64 // W while transmitting or in the DCH tail
	PowerFACH float64 // W in the FACH tail

	// ThroughputBps is the sustained transfer rate used to convert bytes
	// into transmission time.
	ThroughputBps float64
	// MinTxTime floors the duration of any transfer.
	MinTxTime time.Duration
}

// The three major Dutch carriers the paper measured (§5.2). Values are
// calibrated to the published traces: KPN's very long FACH tail dominates
// its per-transmission energy.
var (
	KPN = CarrierProfile{
		Name:          "KPN",
		RampUp:        2500 * time.Millisecond,
		Promote:       600 * time.Millisecond,
		DCHTailTime:   6 * time.Second,
		FACHTailTime:  53500 * time.Millisecond,
		PowerRamp:     0.65,
		PowerDCH:      0.80,
		PowerFACH:     0.25,
		ThroughputBps: 200e3,
		MinTxTime:     200 * time.Millisecond,
	}
	tMobile = CarrierProfile{
		Name:          "T-Mobile",
		RampUp:        2 * time.Second,
		Promote:       500 * time.Millisecond,
		DCHTailTime:   4 * time.Second,
		FACHTailTime:  20 * time.Second,
		PowerRamp:     0.65,
		PowerDCH:      0.80,
		PowerFACH:     0.25,
		ThroughputBps: 250e3,
		MinTxTime:     200 * time.Millisecond,
	}
	vodafone = CarrierProfile{
		Name:          "Vodafone",
		RampUp:        2200 * time.Millisecond,
		Promote:       500 * time.Millisecond,
		DCHTailTime:   5 * time.Second,
		FACHTailTime:  28 * time.Second,
		PowerRamp:     0.65,
		PowerDCH:      0.80,
		PowerFACH:     0.25,
		ThroughputBps: 220e3,
		MinTxTime:     200 * time.Millisecond,
	}
)

// Carriers lists the built-in profiles in the paper's Table 3 order.
func Carriers() []CarrierProfile { return []CarrierProfile{KPN, tMobile, vodafone} }

// TrafficStats mirrors Android's per-interface byte counters; the tail
// detector polls these (§4.7).
type TrafficStats struct {
	TxBytes int64
	RxBytes int64
}

// Total returns TxBytes+RxBytes.
func (t TrafficStats) Total() int64 { return t.TxBytes + t.RxBytes }

// transfer is one queued application transfer.
type transfer struct {
	tx, rx int64
	onDone []func()
}

// Modem is the simulated 3G modem. The zero value is not usable; construct
// with NewModem. All methods are goroutine-safe.
type Modem struct {
	clk     vclock.Clock
	meter   *energy.Meter
	profile CarrierProfile
	emName  string

	mu        sync.Mutex
	state     State
	pending   []transfer // queued while ramping/promoting
	inflight  []transfer // being transmitted
	stats     TrafficStats
	timer     vclock.Timer
	txEnd     time.Time
	listeners []func(old, new State, at time.Time)
	// notifyQueue buffers state-change notifications generated while mu is
	// held; unlockAndNotify drains it after releasing the lock so listeners
	// can call back into the modem.
	notifyQueue []stateChange
}

// NewModem returns an idle modem drawing no power. meter may be nil.
func NewModem(clk vclock.Clock, meter *energy.Meter, profile CarrierProfile) *Modem {
	return &Modem{
		clk:     clk,
		meter:   meter,
		profile: profile,
		emName:  "modem",
		state:   Idle,
	}
}

// State returns the current RRC state.
func (m *Modem) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Stats returns the current traffic counters. Counters advance when a
// transfer completes.
func (m *Modem) Stats() TrafficStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// OnStateChange registers a listener invoked (with the modem unlocked) on
// every state transition. Experiments use this to locate the Figure 3 marks.
func (m *Modem) OnStateChange(fn func(old, new State, at time.Time)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, fn)
}

// Transfer queues an application transfer of tx uplink and rx downlink
// bytes. onDone (may be nil) runs when the bytes have been moved and the
// traffic counters updated. Energy flows to the meter as the modem moves
// through its states.
func (m *Modem) Transfer(tx, rx int64, onDone func()) {
	if tx < 0 {
		tx = 0
	}
	if rx < 0 {
		rx = 0
	}
	tr := transfer{tx: tx, rx: rx}
	if onDone != nil {
		tr.onDone = append(tr.onDone, onDone)
	}

	m.mu.Lock()
	switch m.state {
	case Idle:
		m.pending = append(m.pending, tr)
		m.setStateLocked(RampUp)
		m.resetTimerLocked(m.profile.RampUp, m.rampDone)
	case RampUp, promoting:
		m.pending = append(m.pending, tr)
	case FACHTail:
		m.pending = append(m.pending, tr)
		m.setStateLocked(promoting)
		m.resetTimerLocked(m.profile.Promote, m.rampDone)
	case DCHTail:
		m.inflight = append(m.inflight, tr)
		m.startTxLocked()
	case Transmitting:
		m.inflight = append(m.inflight, tr)
		m.extendTxLocked(tr)
	}
	m.unlockAndNotify()
}

// rampDone fires when ramp-up or promotion completes: move queued transfers
// in flight and start transmitting.
func (m *Modem) rampDone() {
	m.mu.Lock()
	if m.state != RampUp && m.state != promoting {
		m.mu.Unlock()
		return
	}
	m.inflight = append(m.inflight, m.pending...)
	m.pending = nil
	m.startTxLocked()
	m.unlockAndNotify()
}

// startTxLocked enters Transmitting and schedules completion for everything
// in flight.
func (m *Modem) startTxLocked() {
	m.setStateLocked(Transmitting)
	total := int64(0)
	for _, tr := range m.inflight {
		total += tr.tx + tr.rx
	}
	dur := m.txDuration(total)
	m.txEnd = m.clk.Now().Add(dur)
	m.resetTimerLocked(dur, m.txDone)
}

// extendTxLocked pushes the transmission end out by the new transfer's time.
func (m *Modem) extendTxLocked(tr transfer) {
	extra := m.txDuration(tr.tx + tr.rx)
	m.txEnd = m.txEnd.Add(extra)
	m.resetTimerLocked(m.txEnd.Sub(m.clk.Now()), m.txDone)
}

func (m *Modem) txDuration(bytes int64) time.Duration {
	if m.profile.ThroughputBps <= 0 {
		return m.profile.MinTxTime
	}
	d := time.Duration(float64(bytes) * 8 / m.profile.ThroughputBps * float64(time.Second))
	if d < m.profile.MinTxTime {
		d = m.profile.MinTxTime
	}
	return d
}

// txDone fires at the end of a transmission: update counters, run
// completions, enter the DCH tail.
func (m *Modem) txDone() {
	m.mu.Lock()
	if m.state != Transmitting {
		m.mu.Unlock()
		return
	}
	var done []func()
	for _, tr := range m.inflight {
		m.stats.TxBytes += tr.tx
		m.stats.RxBytes += tr.rx
		done = append(done, tr.onDone...)
	}
	m.inflight = nil
	m.setStateLocked(DCHTail)
	m.resetTimerLocked(m.profile.DCHTailTime, m.dchExpired)
	m.unlockAndNotify()
	for _, fn := range done {
		fn()
	}
}

func (m *Modem) dchExpired() {
	m.mu.Lock()
	if m.state != DCHTail {
		m.mu.Unlock()
		return
	}
	m.setStateLocked(FACHTail)
	m.resetTimerLocked(m.profile.FACHTailTime, m.fachExpired)
	m.unlockAndNotify()
}

func (m *Modem) fachExpired() {
	m.mu.Lock()
	if m.state != FACHTail {
		m.mu.Unlock()
		return
	}
	m.setStateLocked(Idle)
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
	m.unlockAndNotify()
}

// setStateLocked updates the state, meter power, and records the pending
// notification. Caller holds mu and must call unlockAndNotify.
func (m *Modem) setStateLocked(s State) {
	if m.state == s {
		return
	}
	old := m.state
	m.state = s
	if m.meter != nil {
		m.meter.Set(m.emName, m.statePower(s))
	}
	m.notifyQueue = append(m.notifyQueue, stateChange{old: old, new: s, at: m.clk.Now()})
}

func (m *Modem) statePower(s State) float64 {
	switch s {
	case RampUp, promoting:
		return m.profile.PowerRamp
	case Transmitting, DCHTail:
		return m.profile.PowerDCH
	case FACHTail:
		return m.profile.PowerFACH
	default:
		return 0
	}
}

func (m *Modem) resetTimerLocked(d time.Duration, fn func()) {
	if m.timer != nil {
		m.timer.Stop()
	}
	m.timer = m.clk.AfterFunc(d, fn)
}

type stateChange struct {
	old, new State
	at       time.Time
}

func (m *Modem) unlockAndNotify() {
	pending := m.notifyQueue
	m.notifyQueue = nil
	listeners := make([]func(State, State, time.Time), len(m.listeners))
	copy(listeners, m.listeners)
	m.mu.Unlock()
	for _, ch := range pending {
		for _, fn := range listeners {
			fn(ch.old, ch.new, ch.at)
		}
	}
}
