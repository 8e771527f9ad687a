package radio

import (
	"math"
	"testing"
	"time"

	"pogo/internal/energy"
	"pogo/internal/vclock"
)

func TestModemIdleByDefault(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	if m.State() != Idle {
		t.Errorf("State = %v, want Idle", m.State())
	}
	if s := m.Stats(); s.Total() != 0 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestModemFullCycle(t *testing.T) {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	m := NewModem(clk, meter, KPN)

	var transitions []State
	m.OnStateChange(func(_, to State, _ time.Time) { transitions = append(transitions, to) })

	done := false
	m.Transfer(1000, 0, func() { done = true })
	if m.State() != RampUp {
		t.Fatalf("State = %v, want RampUp", m.State())
	}
	// Ramp-up (2.5 s) + tx (min 200 ms) + DCH tail (6 s) + FACH (53.5 s).
	clk.Advance(KPN.RampUp)
	if m.State() != Transmitting {
		t.Fatalf("State after ramp = %v", m.State())
	}
	clk.Advance(time.Second)
	if !done {
		t.Fatal("onDone never ran")
	}
	if m.State() != DCHTail {
		t.Fatalf("State after tx = %v", m.State())
	}
	if got := m.Stats().TxBytes; got != 1000 {
		t.Errorf("TxBytes = %d", got)
	}
	clk.Advance(KPN.DCHTailTime)
	if m.State() != FACHTail {
		t.Fatalf("State after DCH tail = %v", m.State())
	}
	clk.Advance(KPN.FACHTailTime)
	if m.State() != Idle {
		t.Fatalf("State after FACH tail = %v", m.State())
	}
	want := []State{RampUp, Transmitting, DCHTail, FACHTail, Idle}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
	if meter.Power() != 0 {
		t.Errorf("meter power = %v after idle", meter.Power())
	}
	if meter.Energy() <= 0 {
		t.Error("no energy accounted")
	}
}

func TestModemTailEnergyDominates(t *testing.T) {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	m := NewModem(clk, meter, KPN)

	m.Transfer(1024, 0, nil)
	clk.Advance(KPN.RampUp + time.Second) // through tx end
	eAfterTx := meter.Energy()
	clk.Advance(KPN.DCHTailTime + KPN.FACHTailTime + time.Second)
	eTotal := meter.Energy()
	tail := eTotal - eAfterTx
	if tail < 2*eAfterTx {
		t.Errorf("tail energy %v J not dominant over active %v J", tail, eAfterTx)
	}
}

func TestModemBatchingAmortizesTail(t *testing.T) {
	run := func(batch bool) float64 {
		clk := vclock.NewSim()
		meter := energy.NewMeter(clk)
		m := NewModem(clk, meter, KPN)
		if batch {
			for i := 0; i < 5; i++ {
				m.Transfer(200, 0, nil)
			}
			clk.Advance(10 * time.Minute)
		} else {
			for i := 0; i < 5; i++ {
				m.Transfer(200, 0, nil)
				clk.Advance(2 * time.Minute)
			}
		}
		return meter.Energy()
	}
	batched, spread := run(true), run(false)
	if batched*2 > spread {
		t.Errorf("batched %v J should be far below spread %v J", batched, spread)
	}
}

func TestModemSendDuringDCHTailSkipsRamp(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	m.Transfer(100, 0, nil)
	clk.Advance(KPN.RampUp + time.Second) // in DCH tail now
	if m.State() != DCHTail {
		t.Fatalf("setup: state = %v", m.State())
	}
	m.Transfer(100, 0, nil)
	if m.State() != Transmitting {
		t.Errorf("State = %v, want immediate Transmitting from DCH tail", m.State())
	}
}

func TestModemSendDuringFACHPromotes(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	m.Transfer(100, 0, nil)
	clk.Advance(KPN.RampUp + time.Second + KPN.DCHTailTime + time.Second)
	if m.State() != FACHTail {
		t.Fatalf("setup: state = %v", m.State())
	}
	m.Transfer(100, 0, nil)
	if m.State() != promoting {
		t.Fatalf("State = %v, want Promoting", m.State())
	}
	clk.Advance(KPN.Promote)
	if m.State() != Transmitting {
		t.Errorf("State after promote = %v", m.State())
	}
}

func TestModemConcurrentTransfersCoalesce(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	doneCount := 0
	m.Transfer(500, 0, func() { doneCount++ })
	m.Transfer(700, 100, func() { doneCount++ }) // queued during ramp
	clk.Advance(KPN.RampUp)
	if m.State() != Transmitting {
		t.Fatalf("state = %v", m.State())
	}
	m.Transfer(300, 0, func() { doneCount++ }) // extends in-flight tx
	clk.Advance(time.Minute)
	if doneCount != 3 {
		t.Errorf("doneCount = %d, want 3", doneCount)
	}
	s := m.Stats()
	if s.TxBytes != 1500 || s.RxBytes != 100 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestModemCountersUpdateAtCompletionOnly(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	m.Transfer(10000, 0, nil)
	clk.Advance(KPN.RampUp / 2)
	if m.Stats().Total() != 0 {
		t.Error("counters moved during ramp-up")
	}
}

func TestModemNegativeBytesClamped(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	m.Transfer(-5, -7, nil)
	clk.Advance(time.Minute)
	if m.Stats().Total() != 0 {
		t.Errorf("Stats = %+v", m.Stats())
	}
}

func TestCarrierProfiles(t *testing.T) {
	cs := Carriers()
	if len(cs) != 3 || cs[0].Name != "KPN" || cs[1].Name != "T-Mobile" || cs[2].Name != "Vodafone" {
		t.Errorf("Carriers = %+v", cs)
	}
	// KPN's Figure 3 tail: ~6 s DCH then ~53.5 s FACH.
	if KPN.DCHTailTime != 6*time.Second || KPN.FACHTailTime != 53500*time.Millisecond {
		t.Error("KPN tail timing drifted from Figure 3")
	}
	for _, c := range cs {
		if c.PowerDCH <= c.PowerFACH {
			t.Errorf("%s: DCH power must exceed FACH", c.Name)
		}
	}
	// Total tail ordering drives Table 3: KPN ≫ Vodafone > T-Mobile.
	tail := func(c CarrierProfile) time.Duration { return c.DCHTailTime + c.FACHTailTime }
	if !(tail(KPN) > tail(vodafone) && tail(vodafone) > tail(tMobile)) {
		t.Error("carrier tail ordering wrong")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Idle: "IDLE", RampUp: "RAMP", promoting: "PROMOTE",
		Transmitting: "TX", DCHTail: "DCH", FACHTail: "FACH", State(0): "?",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestWifiTransfer(t *testing.T) {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	w := NewWifi(clk, meter)
	done := false
	w.Transfer(1e6, 2e6, func() { done = true })
	if meter.Power() == 0 {
		t.Error("wifi not drawing power during transfer")
	}
	clk.Advance(time.Minute)
	if !done {
		t.Fatal("transfer never completed")
	}
	if meter.Power() != 0 {
		t.Error("wifi still drawing power after transfer")
	}
	s := w.Stats()
	if s.TxBytes != 1e6 || s.RxBytes != 2e6 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestWifiFarCheaperThanCellular(t *testing.T) {
	clk := vclock.NewSim()
	meterW := energy.NewMeter(clk)
	w := NewWifi(clk, meterW)
	meterM := energy.NewMeter(clk)
	m := NewModem(clk, meterM, KPN)
	w.Transfer(10*1024, 0, nil)
	m.Transfer(10*1024, 0, nil)
	clk.Advance(5 * time.Minute)
	if meterW.Energy()*10 > meterM.Energy() {
		t.Errorf("wifi %v J vs modem %v J: wifi should be ≥10x cheaper", meterW.Energy(), meterM.Energy())
	}
}

func TestConnectivityHandover(t *testing.T) {
	clk := vclock.NewSim()
	m := NewModem(clk, nil, KPN)
	w := NewWifi(clk, nil)
	c := NewConnectivity(m, w)
	if c.activeInterface() != InterfaceCellular {
		t.Fatalf("initial Active = %v", c.activeInterface())
	}
	if c.Link() != DataLink(m) {
		t.Error("Link != modem")
	}

	var events [][2]Interface
	c.OnChange(func(old, new Interface) { events = append(events, [2]Interface{old, new}) })

	c.SetActive(InterfaceWifi)
	c.SetActive(InterfaceWifi) // no-op
	c.SetActive(InterfaceNone)
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0] != [2]Interface{InterfaceCellular, InterfaceWifi} {
		t.Errorf("first event = %v", events[0])
	}
	if c.Online() {
		t.Error("Online = true when InterfaceNone")
	}
	if c.Link() != nil {
		t.Error("Link != nil when offline")
	}
}

func TestConnectivityDefaults(t *testing.T) {
	if c := NewConnectivity(nil, NewWifi(vclock.NewSim(), nil)); c.activeInterface() != InterfaceWifi {
		t.Errorf("wifi-only default = %v", c.activeInterface())
	}
	if c := NewConnectivity(nil, nil); c.activeInterface() != InterfaceNone {
		t.Errorf("no-link default = %v", c.activeInterface())
	}
}

func TestInterfaceString(t *testing.T) {
	if InterfaceCellular.String() != "cellular" || InterfaceWifi.String() != "wifi" ||
		InterfaceNone.String() != "none" || Interface(0).String() != "?" {
		t.Error("Interface.String wrong")
	}
}

func TestModemEnergyMatchesHandComputation(t *testing.T) {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	m := NewModem(clk, meter, KPN)
	m.Transfer(1, 0, nil) // MinTxTime applies
	clk.Advance(10 * time.Minute)
	want := KPN.RampUp.Seconds()*KPN.PowerRamp +
		KPN.MinTxTime.Seconds()*KPN.PowerDCH +
		KPN.DCHTailTime.Seconds()*KPN.PowerDCH +
		KPN.FACHTailTime.Seconds()*KPN.PowerFACH
	if got := meter.Energy(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}
