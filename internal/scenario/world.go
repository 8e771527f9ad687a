package scenario

import (
	"fmt"
	"path"
	"strings"
	"time"

	"pogo/internal/android"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/env"
	"pogo/internal/experiments"
	"pogo/internal/obs"
	"pogo/internal/radio"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// Execution modes. A scenario picks one with its world-up command; most
// commands are only meaningful in some modes and error in the others.
const (
	modeNone  = ""      // no world yet: table3/table4 run self-contained
	modeChaos = "chaos" // interactive ChaosWorld (single collector)
	modeFleet = "fleet" // sharded fleet; config staged, `run` executes wholesale
	modePogo  = "pogo"  // full Pogo nodes: deploy scripts, subscribe, go offline
)

// chaosState wraps the interactive chaos testbed: the world, the round
// cursor, the last crowd cohort, and the fault mix as last set (ChaosConfig
// does not track SetFaults, so scripted inject_fault merges against this
// copy).
type chaosState struct {
	w     *experiments.ChaosWorld
	next  int // next injection round to run
	crowd int // size of the last crowd command's cohort

	drop, dup, corrupt float64
	delay              time.Duration
}

func newChaosState(cfg experiments.ChaosConfig) *chaosState {
	w := experiments.NewChaosWorld(cfg)
	rc := w.Config()
	return &chaosState{
		w: w, drop: rc.Drop, dup: rc.Duplicate, corrupt: rc.Corrupt, delay: rc.MaxDelay,
	}
}

// matchEntities expands a glob over the chaos world's entity names.
func (cs *chaosState) matchEntities(pattern string) ([]string, error) {
	var out []string
	for _, name := range cs.w.EntityNames() {
		ok, err := path.Match(pattern, name)
		if err != nil {
			return nil, fmt.Errorf("bad pattern %q: %v", pattern, err)
		}
		if ok {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pattern %q matches no entity", pattern)
	}
	return out, nil
}

// pogoState is the deploy-mode world: one collector node and one phone node
// joined by a switchboard, with the modem/battery stack of the power
// experiments so tail-sync, energy accounting, and offline buffering all
// behave as in §5.2.
type pogoState struct {
	clk   *vclock.Sim
	sb    *transport.Switchboard
	conn  *radio.Connectivity
	modem *radio.Modem
	droid *android.Device
	col   *core.Node
	dev   *core.Node
	stops []func()
}

func newPogoState(reg *obs.Registry, carrier radio.CarrierProfile, flushEvery time.Duration) (*pogoState, error) {
	p := &pogoState{}
	p.clk = vclock.NewSim()
	p.sb = transport.NewSwitchboard(p.clk)
	meter := energy.NewMeter(p.clk)
	p.droid = android.NewDevice(p.clk, meter, android.Config{})
	p.modem = radio.NewModem(p.clk, meter, carrier)
	p.conn = radio.NewConnectivity(p.modem, nil)

	p.sb.Associate("collector", "phone")
	col, err := core.NewNode(core.Config{
		ID: "collector", Mode: core.CollectorMode, Clock: p.clk,
		Messenger: p.sb.Port("collector", nil), Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	policy, every := core.FlushTailSync, time.Hour
	if flushEvery > 0 {
		policy, every = core.FlushInterval, flushEvery
	}
	dev, err := core.NewNode(core.Config{
		ID: "phone", Mode: core.DeviceMode, Clock: p.clk,
		Messenger: p.sb.Port("phone", p.conn),
		Device:    p.droid, Modem: p.modem, Storage: store.NewMemKV(),
		FlushPolicy: policy, FlushEvery: every, Obs: reg,
	})
	if err != nil {
		col.Close()
		return nil, err
	}
	dev.Sensors().Register(sensors.NewBatterySensor(dev.Sensors(), p.droid))
	p.col, p.dev = col, dev
	if reg != nil {
		p.stops = append(p.stops,
			meter.Instrument(reg, "phone", "modem"),
			p.modem.Instrument(reg, "phone"))
	}
	return p, nil
}

func (p *pogoState) close() {
	for _, stop := range p.stops {
		stop()
	}
	p.stops = nil
	if p.dev != nil {
		p.dev.Close()
	}
	if p.col != nil {
		p.col.Close()
	}
}

// node returns the named pogo-mode node.
func (p *pogoState) node(name string) (*core.Node, error) {
	switch name {
	case "collector":
		return p.col, nil
	case "phone":
		return p.dev, nil
	}
	return nil, fmt.Errorf("unknown node %q (want phone or collector)", name)
}

// Thin radio indirections so engine.go stays free of the radio import.
func radioDefaultCarrier() radio.CarrierProfile { return radio.KPN }
func radioInterfaceNone() radio.Interface       { return radio.InterfaceNone }
func radioInterfaceCellular() radio.Interface   { return radio.InterfaceCellular }

// carrierByName resolves a carrier option value ("kpn", "t-mobile",
// "vodafone", case-insensitive).
func carrierByName(name string) (radio.CarrierProfile, error) {
	for _, c := range radio.Carriers() {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return radio.CarrierProfile{}, fmt.Errorf("unknown carrier %q", name)
}

// crowdAt builds the seeded synthetic world of §5.3 and reports which of the
// first `users` user schedules dwell at the named shared place at instant
// `at` past the schedule start. The result depends only on (seed, users,
// place, at) — the schedules are generated, never simulated — so it is safe
// to drive chaos-world traffic from it.
func crowdAt(seed int64, users int, place string, at time.Duration) ([]int, error) {
	world := env.NewWorld(seed)
	found := false
	for _, p := range world.SharedPlaces {
		if p.Name == place {
			found = true
			break
		}
	}
	if !found {
		names := make([]string, len(world.SharedPlaces))
		for i, p := range world.SharedPlaces {
			names[i] = p.Name
		}
		return nil, fmt.Errorf("unknown place %q (shared places: %s)", place, strings.Join(names, ", "))
	}
	days := int(at/(24*time.Hour)) + 1
	start := vclock.SimEpoch
	var members []int
	for i := 0; i < users; i++ {
		sched := world.GenerateSchedule(fmt.Sprintf("user%02d", i), env.ScheduleConfig{
			Start: start, Days: days, Seed: seed + int64(i),
		})
		if p := sched.At(start.Add(at)); p != nil && p.Name == place {
			members = append(members, i)
		}
	}
	return members, nil
}
