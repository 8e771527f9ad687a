package core

import (
	"sort"

	"pogo/internal/obs"
)

// ScriptUsage is the per-script resource accounting of the paper's future
// work (§6: "implement power modelling to estimate the resource consumption
// of individual scripts"). Counters come from the script runtime; the
// energy estimate applies a PowerModel to them.
type ScriptUsage struct {
	// Context is the owning collector ("" for the collector's own scripts).
	Context string
	Name    string
	// Entries counts calls into script code; Steps the interpreter steps
	// they consumed (the CPU-time proxy); Publishes the messages the script
	// emitted; Errors the runtime failures, of which DeadlineExceeded were
	// §4.5 step-budget overruns.
	Entries          int
	Errors           int
	DeadlineExceeded int
	Publishes        int
	Steps            int64
	// EstimatedJoules is the PowerModel applied to the counters.
	EstimatedJoules float64
}

// PowerModel converts script activity counters into an energy estimate.
// The defaults are calibrated against this repository's device model: one
// million interpreter steps approximate 0.1 s of phone CPU at 0.15 W, and
// one published message costs its amortized share of a batched, tail-
// synchronized transmission.
type PowerModel struct {
	JoulesPerMegaStep float64
	JoulesPerPublish  float64
}

// DefaultPowerModel returns the calibrated constants.
func DefaultPowerModel() PowerModel {
	return PowerModel{JoulesPerMegaStep: 0.015, JoulesPerPublish: 0.3}
}

// estimate applies the model.
func (m PowerModel) estimate(steps int64, publishes int) float64 {
	return float64(steps)/1e6*m.JoulesPerMegaStep + float64(publishes)*m.JoulesPerPublish
}

// ScriptUsages reports every deployed script's resource consumption under
// the given model, ordered by estimated energy (highest first) then name.
// Researchers use this to find the experiment that is draining volunteers'
// batteries.
func (n *Node) ScriptUsages(model PowerModel) []ScriptUsage {
	n.mu.Lock()
	ctxs := make([]*Context, 0, len(n.contexts)+1)
	for _, c := range n.contexts {
		ctxs = append(ctxs, c)
	}
	if n.local != nil {
		ctxs = append(ctxs, n.local)
	}
	n.mu.Unlock()

	var out []ScriptUsage
	for _, c := range ctxs {
		c.mu.Lock()
		names := append([]string(nil), c.order...)
		insts := make(map[string]*deployedScript, len(names))
		for k, v := range c.scripts {
			insts[k] = v
		}
		owner := c.owner
		c.mu.Unlock()
		for _, name := range names {
			d := insts[name]
			if d == nil {
				continue
			}
			st := d.inst.StatsSnapshot()
			out = append(out, ScriptUsage{
				Context:          owner,
				Name:             name,
				Entries:          st.Entries,
				Errors:           st.Errors,
				DeadlineExceeded: st.DeadlineExceeded,
				Publishes:        st.Publishes,
				Steps:            st.Steps,
				EstimatedJoules:  model.estimate(st.Steps, st.Publishes),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EstimatedJoules != out[j].EstimatedJoules {
			return out[i].EstimatedJoules > out[j].EstimatedJoules
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// exportUsage syncs per-script usage counters into the node's registry as
// gauges (gauges, not counters: script updates reset the runtime's counters,
// so values are not monotonic). Runs as a Registry.OnCollect hook before
// every snapshot, and once more at Close.
//
// It also charges the *increase* since the previous export to the per-entity
// ledger, so (device, script, "") rows accumulate steps, publishes, deadline
// overruns, and modeled CPU energy (state "cpu-model") monotonically even
// across script updates: a counter that shrank means a fresh instance, and
// the anchor resets to zero so the new instance's full activity is charged.
func (n *Node) exportUsage() {
	reg := n.cfg.Obs
	if reg == nil {
		return
	}
	for _, u := range n.ScriptUsages(DefaultPowerModel()) {
		ls := []obs.Label{
			obs.L("node", n.cfg.ID),
			obs.L("context", u.Context),
			obs.L("script", u.Name),
		}
		reg.Gauge("script_entries", ls...).Set(float64(u.Entries))
		reg.Gauge("script_errors", ls...).Set(float64(u.Errors))
		reg.Gauge("script_publishes", ls...).Set(float64(u.Publishes))
		reg.Gauge("script_steps", ls...).Set(float64(u.Steps))
		reg.Gauge("script_estimated_joules", ls...).Set(u.EstimatedJoules)
		n.chargeUsage(reg, u)
	}
}

// lastUsage anchors the previously charged counter values per script, so
// exportUsage books deltas rather than re-booking totals on every collect.
type lastUsage struct {
	steps     int64
	publishes int
	deadlines int
	joules    float64
}

func (n *Node) chargeUsage(reg *obs.Registry, u ScriptUsage) {
	n.mu.Lock()
	if n.usageAnchors == nil {
		n.usageAnchors = make(map[string]lastUsage)
	}
	key := u.Context + "\x00" + u.Name
	prev := n.usageAnchors[key]
	if u.Steps < prev.steps || u.Publishes < prev.publishes ||
		u.DeadlineExceeded < prev.deadlines || u.EstimatedJoules < prev.joules {
		prev = lastUsage{} // script was updated; counters restarted
	}
	n.usageAnchors[key] = lastUsage{
		steps:     u.Steps,
		publishes: u.Publishes,
		deadlines: u.DeadlineExceeded,
		joules:    u.EstimatedJoules,
	}
	entity := n.cfg.ObsEntity
	n.mu.Unlock()

	m := reg.Meter(entity, u.Name, "")
	m.AddSteps(u.Steps - prev.steps)
	m.AddMessages(int64(u.Publishes - prev.publishes))
	m.AddDeadlineExceeded(int64(u.DeadlineExceeded - prev.deadlines))
	if dj := u.EstimatedJoules - prev.joules; dj > 0 {
		m.AddEnergy("cpu-model", dj)
	}
}
