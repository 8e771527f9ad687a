// Package energy models device power consumption and substitutes for the
// paper's shunt-resistor measurement rig (a 0.33 Ω shunt sampled by an NI
// USB-6009 ADC, §5.2).
//
// Components (the CPU, the 3G modem, the Wi-Fi radio, ...) report their
// instantaneous power draw to a Meter; power is piecewise constant between
// reports, so the meter integrates energy exactly and can emit the step
// trace that reproduces Figure 3.
package energy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pogo/internal/vclock"
)

// Sample is one point of a power trace: total draw from At onward until the
// next sample.
type Sample struct {
	At    time.Time
	Watts float64
}

// Meter integrates the total power reported by a set of named components.
// The zero value is not usable; construct with NewMeter.
type Meter struct {
	clk vclock.Clock

	mu      sync.Mutex
	levels  map[string]float64
	total   float64 // joules accumulated up to lastAt
	perComp map[string]float64
	lastAt  time.Time
	trace   []Sample
	tracing bool
}

// NewMeter returns a meter reading zero power on the given clock.
func NewMeter(clk vclock.Clock) *Meter {
	return &Meter{
		clk:     clk,
		levels:  make(map[string]float64),
		perComp: make(map[string]float64),
		lastAt:  clk.Now(),
	}
}

// Set reports that a component now draws watts. Negative values clamp to 0.
func (m *Meter) Set(component string, watts float64) {
	if watts < 0 {
		watts = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate()
	if watts == 0 {
		delete(m.levels, component)
	} else {
		m.levels[component] = watts
	}
	if m.tracing {
		m.appendTraceSample()
	}
}

// Add increases a component's draw by watts (may be negative to decrease).
func (m *Meter) Add(component string, watts float64) {
	m.mu.Lock()
	cur := m.levels[component]
	m.mu.Unlock()
	m.Set(component, cur+watts)
}

// Power returns the current total draw in watts.
func (m *Meter) Power() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sumLocked()
}

// ComponentPower returns one component's current draw in watts.
func (m *Meter) ComponentPower(component string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.levels[component]
}

// Energy returns total joules consumed since construction (or the last
// Reset), up to the clock's current instant.
func (m *Meter) Energy() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate()
	return m.total
}

// Reset zeroes the energy accumulator and clears any recorded trace. Current
// component levels are preserved.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate()
	m.total = 0
	m.perComp = make(map[string]float64)
	m.trace = nil
	if m.tracing {
		m.appendTraceSample()
	}
}

// StartTrace begins recording the power step function. The first sample is
// the current level at the current instant.
func (m *Meter) StartTrace() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate()
	m.tracing = true
	m.trace = nil
	m.appendTraceSample()
}

// StopTrace stops recording and returns the samples collected so far.
func (m *Meter) StopTrace() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate()
	m.tracing = false
	out := make([]Sample, len(m.trace))
	copy(out, m.trace)
	m.trace = nil
	return out
}

// accumulate folds the energy since lastAt into total. Caller holds mu.
func (m *Meter) accumulate() {
	now := m.clk.Now()
	if now.After(m.lastAt) {
		dt := now.Sub(m.lastAt).Seconds()
		m.total += m.sumLocked() * dt
		for comp, w := range m.levels {
			m.perComp[comp] += w * dt
		}
		m.lastAt = now
	}
}

// EnergyBreakdown returns per-component joules, sorted by name.
func (m *Meter) EnergyBreakdown() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate()
	out := make(map[string]float64, len(m.perComp))
	for k, v := range m.perComp {
		out[k] = v
	}
	return out
}

// sumLocked totals the current draw. Components are added in sorted order:
// float addition is order-sensitive, and map iteration order varies between
// runs, which would make accumulated joules differ in their last bits across
// two same-seed runs and break byte-identical accounting exports.
func (m *Meter) sumLocked() float64 {
	if len(m.levels) == 1 {
		for _, w := range m.levels {
			return w
		}
	}
	names := make([]string, 0, len(m.levels))
	for n := range m.levels {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		sum += m.levels[n]
	}
	return sum
}

func (m *Meter) appendTraceSample() {
	now := m.clk.Now()
	w := m.sumLocked()
	if n := len(m.trace); n > 0 && m.trace[n-1].At.Equal(now) {
		m.trace[n-1].Watts = w
		return
	}
	m.trace = append(m.trace, Sample{At: now, Watts: w})
}

// TraceEnergy integrates a step-function trace between t0 and t1 (joules).
// Samples outside [t0, t1] clip; the level before the first sample is zero.
func TraceEnergy(trace []Sample, t0, t1 time.Time) float64 {
	if t1.Before(t0) || len(trace) == 0 {
		return 0
	}
	total := 0.0
	for i, s := range trace {
		segStart := s.At
		var segEnd time.Time
		if i+1 < len(trace) {
			segEnd = trace[i+1].At
		} else {
			segEnd = t1
		}
		if segStart.Before(t0) {
			segStart = t0
		}
		if segEnd.After(t1) {
			segEnd = t1
		}
		if segEnd.After(segStart) {
			total += s.Watts * segEnd.Sub(segStart).Seconds()
		}
	}
	return total
}

// RenderTrace renders a trace as an ASCII time/power table plus a bar chart,
// used by pogo-bench to print Figure 3.
func RenderTrace(trace []Sample, start time.Time, width int) string {
	if width <= 0 {
		width = 60
	}
	maxW := 0.0
	for _, s := range trace {
		if s.Watts > maxW {
			maxW = s.Watts
		}
	}
	var sb strings.Builder
	for _, s := range trace {
		bar := 0
		if maxW > 0 {
			bar = int(s.Watts / maxW * float64(width))
		}
		fmt.Fprintf(&sb, "%8.2fs %7.0f mW |%s\n",
			s.At.Sub(start).Seconds(), s.Watts*1000, strings.Repeat("#", bar))
	}
	return sb.String()
}

// Resample converts a step trace into fixed-interval samples over [t0, t1),
// averaging power within each bucket — the shape the paper's ADC produced.
func Resample(trace []Sample, t0, t1 time.Time, interval time.Duration) []Sample {
	if interval <= 0 || !t1.After(t0) {
		return nil
	}
	n := int(t1.Sub(t0) / interval)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		bs := t0.Add(time.Duration(i) * interval)
		be := bs.Add(interval)
		joules := TraceEnergy(trace, bs, be)
		out = append(out, Sample{At: bs, Watts: joules / interval.Seconds()})
	}
	return out
}
