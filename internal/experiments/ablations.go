package experiments

import (
	"fmt"
	"strings"
	"time"

	"pogo/internal/android"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/pubsub"
	"pogo/internal/radio"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/tail"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// FlushPolicyRow compares one outbox flush policy (the §4.7 design-space
// ablation: tail synchronization vs the alternatives it argues against).
type FlushPolicyRow struct {
	Policy        string
	Joules        float64
	IncreasePct   float64 // over the no-Pogo baseline
	PogoTails     int
	DeliveryDelay time.Duration
	Delivered     int
}

// AblationFlushPolicies measures the energy/latency trade-off of each flush
// policy on the KPN profile.
func AblationFlushPolicies() []FlushPolicyRow {
	base := runPowerTrial(powerTrialConfig{Carrier: radio.KPN})
	cases := []struct {
		name   string
		policy core.FlushPolicy
		every  time.Duration
	}{
		{"tail-sync (Pogo)", core.FlushTailSync, 0},
		{"immediate", core.FlushImmediate, 0},
		// 4 min deliberately de-phases from the 5-min e-mail checks, so
		// interval flushing pays for its own tails.
		{"interval 4min", core.FlushInterval, 4 * time.Minute},
		{"interval 1h", core.FlushInterval, time.Hour},
	}
	rows := make([]FlushPolicyRow, 0, len(cases))
	for _, c := range cases {
		r := runPowerTrial(powerTrialConfig{
			Carrier: radio.KPN, WithPogo: true, Policy: c.policy, FlushEvery: c.every,
		})
		rows = append(rows, FlushPolicyRow{
			Policy:        c.name,
			Joules:        r.Joules,
			IncreasePct:   100 * (r.Joules - base.Joules) / base.Joules,
			PogoTails:     r.PogoTails,
			DeliveryDelay: r.DeliveryDelayMean,
			Delivered:     r.ReportsDelivered,
		})
	}
	return rows
}

// RenderFlushPolicies prints the ablation.
func RenderFlushPolicies(rows []FlushPolicyRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: outbox flush policy (KPN, 1 h, e-mail every 5 min, battery 1/min)\n")
	fmt.Fprintf(&sb, "%-18s %10s %10s %10s %12s %10s\n",
		"Policy", "Energy", "Increase", "PogoTails", "MeanDelay", "Delivered")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %8.1f J %9.2f%% %10d %12s %10d\n",
			r.Policy, r.Joules, r.IncreasePct, r.PogoTails,
			r.DeliveryDelay.Round(time.Second), r.Delivered)
	}
	return sb.String()
}

// DetectorPollingRow compares tail-detector polling strategies: the paper's
// Thread.sleep trick versus naive 1 s RTC alarms (§4.7's rejected design).
type DetectorPollingRow struct {
	Strategy    string
	Joules      float64
	CPUUptime   time.Duration
	TailsCaught int
}

// AblationDetectorPolling runs both polling strategies for an hour next to
// the 5-minute e-mail checker and compares CPU cost and detection coverage.
func AblationDetectorPolling() []DetectorPollingRow {
	run := func(alarms bool) DetectorPollingRow {
		clk := vclock.NewSim()
		meter := energy.NewMeter(clk)
		droid := android.NewDevice(clk, meter, android.Config{})
		modem := radio.NewModem(clk, meter, radio.KPN)
		email := android.NewPeriodicApp(clk, droid, modem, nil)
		email.Start()

		caught := 0
		if alarms {
			// Naive: an RTC alarm every second reads the counters. Every
			// alarm wakes the CPU for the linger period — the CPU
			// effectively never sleeps.
			last := int64(0)
			var tick func()
			tick = func() {
				if cur := modem.Stats().Total(); cur > last {
					last = cur
					caught++
				}
				droid.SetAlarm(time.Second, tick)
			}
			droid.SetAlarm(time.Second, tick)
		} else {
			det := tail.New(droid, modem.Stats, 0)
			det.OnTraffic(func(int64) { caught++ })
			det.Start()
		}
		clk.Advance(time.Hour)
		name := "uptime-sleep (Pogo)"
		if alarms {
			name = "1 s RTC alarms"
		}
		return DetectorPollingRow{
			Strategy:    name,
			Joules:      meter.Energy(),
			CPUUptime:   droid.Uptime(),
			TailsCaught: caught,
		}
	}
	return []DetectorPollingRow{run(false), run(true)}
}

// RenderDetectorPolling prints the ablation.
func RenderDetectorPolling(rows []DetectorPollingRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: tail-detector polling strategy (KPN, 1 h, e-mail every 5 min)\n")
	fmt.Fprintf(&sb, "%-20s %10s %12s %8s\n", "Strategy", "Energy", "CPU uptime", "Caught")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %8.1f J %12s %8d\n",
			r.Strategy, r.Joules, r.CPUUptime.Round(time.Second), r.TailsCaught)
	}
	return sb.String()
}

// SensorGatingRow compares subscription-driven sensor gating against an
// always-on sensor (§3.5: "the sensor can be turned off to save energy").
type SensorGatingRow struct {
	Mode    string
	Joules  float64
	Samples int
}

// AblationSensorGating runs the Wi-Fi scan sensor for an hour with no
// subscriber demand, gated (Pogo) vs forced always-on.
func AblationSensorGating() []SensorGatingRow {
	run := func(forceOn bool) SensorGatingRow {
		clk := vclock.NewSim()
		sb := transport.NewSwitchboard(clk)
		meter := energy.NewMeter(clk)
		droid := android.NewDevice(clk, meter, android.Config{})
		modem := radio.NewModem(clk, meter, radio.KPN)
		conn := radio.NewConnectivity(modem, nil)
		port := sb.Port("dev", conn)
		node, err := core.NewNode(core.Config{
			ID: "dev", Mode: core.DeviceMode, Clock: clk, Messenger: port,
			Device: droid, Modem: modem, Storage: store.NewMemKV(),
		})
		if err != nil {
			panic(err)
		}
		defer node.Close()
		scanner := staticScanner{}
		sensor := sensors.NewWifiScanSensor(node.Sensors(), scanner, sensors.WifiScanConfig{Meter: meter})
		node.Sensors().Register(sensor)

		samples := 0
		var keepAlive *pubsub.Subscription
		if forceOn {
			// A legacy-style middleware samples regardless of demand: model
			// it by subscribing without any consumer logic.
			broker := pubsub.New()
			node.Sensors().AddBroker(broker)
			keepAlive = broker.Subscribe(sensors.ChannelWifiScan, nil, func(pubsub.Event) { samples++ })
		}
		clk.Advance(time.Hour)
		if keepAlive != nil {
			keepAlive.Release()
		}
		name := "gated (Pogo)"
		if forceOn {
			name = "always-on"
		}
		return SensorGatingRow{Mode: name, Joules: meter.Energy(), Samples: samples}
	}
	return []SensorGatingRow{run(false), run(true)}
}

type staticScanner struct{}

func (staticScanner) ScanWifi() []sensors.AccessPoint {
	return []sensors.AccessPoint{{BSSID: "aa", SSID: "net", RSSI: -60}}
}

// RenderSensorGating prints the ablation.
func RenderSensorGating(rows []SensorGatingRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: subscription-driven sensor gating (Wi-Fi scan sensor, 1 h, no consumer)\n")
	fmt.Fprintf(&sb, "%-14s %10s %9s\n", "Mode", "Energy", "Samples")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %8.1f J %9d\n", r.Mode, r.Joules, r.Samples)
	}
	return sb.String()
}

// FreezeThawRow compares data quality with and without persistent script
// state (the §5.3 post-mortem fix).
type FreezeThawRow struct {
	Mode       string
	MatchPct   float64
	PartialPct float64
	Locations  int
}

// AblationFreezeThaw reruns a faulty localization session with and without
// freeze/thaw and compares the Table 4 match columns.
func AblationFreezeThaw(days int) ([]FreezeThawRow, error) {
	if days == 0 {
		days = 6
	}
	session := []SessionConfig{{
		User: "User 1", DeviceID: "dev1",
		Duration: time.Duration(days) * 24 * time.Hour, Seed: 101,
		Faults: []Fault{
			{Kind: FaultReboot, At: time.Duration(days) * 24 * time.Hour / 4},
			{Kind: FaultReboot, At: time.Duration(days) * 24 * time.Hour * 2 / 4},
			{Kind: faultScriptUpdate, At: time.Duration(days) * 24 * time.Hour * 3 / 4},
		},
	}}
	var out []FreezeThawRow
	for _, freeze := range []bool{false, true} {
		res, err := Table4(Table4Config{Seed: 1, Days: days, FreezeThaw: freeze, Sessions: session})
		if err != nil {
			return nil, err
		}
		mode := "as deployed (no freeze/thaw)"
		if freeze {
			mode = "with freeze/thaw"
		}
		r := res.Rows[0]
		out = append(out, FreezeThawRow{
			Mode: mode, MatchPct: r.MatchPct, PartialPct: r.PartialPct, Locations: r.Locations,
		})
	}
	return out, nil
}

// RenderFreezeThaw prints the ablation.
func RenderFreezeThaw(rows []FreezeThawRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: freeze/thaw state persistence under reboots and script updates\n")
	fmt.Fprintf(&sb, "%-30s %7s %8s %10s\n", "Mode", "Match", "Partial", "Locations")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-30s %6.0f%% %7.0f%% %10d\n", r.Mode, r.MatchPct, r.PartialPct, r.Locations)
	}
	return sb.String()
}
