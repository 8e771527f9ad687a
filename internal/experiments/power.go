// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate, plus the ablations called out
// in DESIGN.md. Each experiment returns a typed result with a Render method
// producing the row/series format of the paper.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pogo/internal/android"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/obs"
	"pogo/internal/radio"
	"pogo/internal/script/scripts"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// powerTrialConfig describes one §5.2 power measurement run: a device with
// an e-mail application checking every EmailInterval, with or without Pogo
// reporting battery voltage alongside it.
type powerTrialConfig struct {
	Carrier       radio.CarrierProfile
	Duration      time.Duration // default 1 h (the paper's trace length)
	EmailInterval time.Duration // default 5 min
	WithPogo      bool
	// Policy applies when WithPogo; default FlushTailSync (§4.7).
	Policy core.FlushPolicy
	// FlushEvery is the period for core.FlushInterval.
	FlushEvery time.Duration
	// RecordTrace captures the power step function (Figure 3).
	RecordTrace bool
	// Log records activity spans (Figure 4).
	Log *android.ActivityLog
	// Obs, when non-nil, instruments both nodes into this registry.
	Obs *obs.Registry
	// ObsDevice is the ledger entity axis this trial's energy, bytes, and
	// time-series samples are booked under; "" means "phone". Table3Obs
	// uses it to keep per-carrier trials apart in one registry while the
	// metric node labels stay "phone"/"collector".
	ObsDevice string
}

func (c powerTrialConfig) withDefaults() powerTrialConfig {
	if c.Carrier.Name == "" {
		c.Carrier = radio.KPN
	}
	if c.Duration == 0 {
		c.Duration = time.Hour
	}
	if c.EmailInterval == 0 {
		c.EmailInterval = 5 * time.Minute
	}
	if c.Policy == 0 {
		c.Policy = core.FlushTailSync
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = time.Hour
	}
	if c.ObsDevice == "" {
		c.ObsDevice = "phone"
	}
	return c
}

// powerTrialResult reports one run's energy accounting.
type powerTrialResult struct {
	Config      powerTrialConfig
	Joules      float64
	EmailChecks int
	// RampUps counts modem activations; PogoTails is how many were NOT
	// triggered by the e-mail application — the tails Pogo itself caused.
	RampUps   int
	PogoTails int
	// ReportsDelivered counts battery reports that reached the collector.
	ReportsDelivered int
	// MeanBatchSize is reports per transmission burst (the paper's
	// "batches of five").
	MeanBatchSize float64
	// DeliveryDelayMean is the average enqueue→deliver latency.
	DeliveryDelayMean time.Duration
	// UplinkBytes is the phone's total data-batch payload bytes for the
	// whole run (settle window included), from the transport's own counter.
	UplinkBytes int64
	// Breakdown is the per-component energy split of the measured window.
	Breakdown map[string]float64
	// Trace is the power step function when RecordTrace was set.
	Trace []energy.Sample
	// TraceStart anchors the trace timestamps.
	TraceStart time.Time
}

// runPowerTrial executes one power measurement in simulated time.
func runPowerTrial(cfg powerTrialConfig) powerTrialResult {
	cfg = cfg.withDefaults()
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)

	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, cfg.Carrier)
	conn := radio.NewConnectivity(modem, nil)

	rampUps := 0
	modem.OnStateChange(func(_, to radio.State, _ time.Time) {
		if to == radio.RampUp {
			rampUps++
		}
	})

	email := android.NewPeriodicApp(clk, droid, modem, cfg.Log)
	email.Interval = cfg.EmailInterval
	email.Start()

	res := powerTrialResult{Config: cfg}

	var devNode, colNode *core.Node
	var delays []time.Duration
	var burstTimes []time.Time
	if cfg.WithPogo {
		sb.Associate("collector", "phone")
		colPort := sb.Port("collector", nil)
		var err error
		colNode, err = core.NewNode(core.Config{
			ID: "collector", Mode: core.CollectorMode, Clock: clk, Messenger: colPort,
			Obs: cfg.Obs,
		})
		if err != nil {
			panic(err)
		}
		defer colNode.Close()

		devPort := sb.Port("phone", conn)
		devNode, err = core.NewNode(core.Config{
			ID: "phone", Mode: core.DeviceMode, Clock: clk, Messenger: devPort,
			Device: droid, Modem: modem, Storage: store.NewMemKV(),
			FlushPolicy: cfg.Policy, FlushEvery: cfg.FlushEvery,
			Obs: cfg.Obs, ObsEntity: cfg.ObsDevice,
		})
		if err != nil {
			panic(err)
		}
		defer devNode.Close()
		devNode.Sensors().Register(sensors.NewBatterySensor(devNode.Sensors(), droid))

		// Collector side: receive battery reports, measuring latency.
		colNode.LocalContext().Broker().Subscribe("battery-report", nil, nil)
		colNode.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
		colNode.Deploy("battery.js", scripts.MustSource("battery.js"))

		if cfg.Log != nil {
			// Record CPU and Pogo transmission activity for Figure 4.
			droid.OnCPUStateChange(func(awake bool, at time.Time) {
				if awake {
					cfg.Log.Begin("cpu", at)
				} else {
					cfg.Log.End("cpu", at)
				}
			})
			if det := devNode.TailDetector(); det != nil {
				det.OnTraffic(func(int64) {
					now := clk.Now()
					cfg.Log.Begin("pogo-tx", now)
					clk.AfterFunc(time.Second, func() { cfg.Log.End("pogo-tx", clk.Now()) })
				})
			}
		}
		colNode.Logs().SetOnAppend(func(logName, line string) {
			if logName != "battery" {
				return
			}
			res.ReportsDelivered++
			now := clk.Now()
			if t, ok := parseReportTimestamp(line); ok {
				delays = append(delays, now.Sub(t))
			}
			if len(burstTimes) == 0 || now.Sub(burstTimes[len(burstTimes)-1]) > 30*time.Second {
				burstTimes = append(burstTimes, now)
			}
		})
	}

	// Let the deployment settle — and its transmission tail die out —
	// before the measured hour begins.
	clk.Advance(3 * time.Minute)
	meter.Reset()
	// Instrument the power sources only now, so the ledger (like the meter)
	// sees nothing but the measured window. The meter skips its "modem"
	// component because the modem instrument books that energy per RRC state.
	var stopObs []func()
	if cfg.Obs != nil {
		stopObs = append(stopObs,
			meter.Instrument(cfg.Obs, cfg.ObsDevice, "modem"),
			modem.Instrument(cfg.Obs, cfg.ObsDevice),
			obs.StartSampling(clk, cfg.Obs, time.Minute, cfg.ObsDevice))
	}
	rampsBefore, checksBefore := rampUps, email.Checks()
	if cfg.RecordTrace {
		meter.StartTrace()
	}
	res.TraceStart = clk.Now()
	clk.Advance(cfg.Duration)

	res.Joules = meter.Energy()
	res.Breakdown = meter.EnergyBreakdown()
	if cfg.RecordTrace {
		res.Trace = meter.StopTrace()
	}
	res.EmailChecks = email.Checks() - checksBefore
	res.RampUps = rampUps - rampsBefore
	res.PogoTails = res.RampUps - res.EmailChecks
	if res.PogoTails < 0 {
		res.PogoTails = 0
	}
	if len(burstTimes) > 0 {
		res.MeanBatchSize = float64(res.ReportsDelivered) / float64(len(burstTimes))
	}
	if len(delays) > 0 {
		var sum time.Duration
		for _, d := range delays {
			sum += d
		}
		res.DeliveryDelayMean = sum / time.Duration(len(delays))
	}
	if devNode != nil {
		res.UplinkBytes = devNode.Endpoint().Stats().BytesSent
	}
	if cfg.Obs != nil {
		cfg.Obs.Collect() // book the window's final energy and usage deltas
		for _, stop := range stopObs {
			stop()
		}
	}
	email.Stop()
	return res
}

// parseReportTimestamp extracts the "t": field of a battery report line.
func parseReportTimestamp(line string) (time.Time, bool) {
	idx := strings.Index(line, `"t":`)
	if idx < 0 {
		return time.Time{}, false
	}
	rest := line[idx+4:]
	end := strings.IndexAny(rest, ",}")
	if end < 0 {
		return time.Time{}, false
	}
	ms, err := strconv.ParseFloat(strings.TrimSpace(rest[:end]), 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.UnixMilli(int64(ms)).UTC(), true
}

// Table3Row is one carrier's with/without-Pogo comparison.
type Table3Row struct {
	Carrier     string
	WithoutPogo float64 // J over the measured hour
	WithPogo    float64
	IncreasePct float64
	PogoTails   int // modem activations caused by Pogo itself (0 = perfect sync)
	BatchSize   float64
	UplinkBytes int64 // phone uplink payload bytes over the whole with-Pogo run
}

// Table3 reruns the §5.2 experiment across the three carriers.
func Table3() []Table3Row { return Table3Obs(nil) }

// Table3Obs is Table3 with every trial instrumented into reg (the registry
// accumulates across carriers: the phone's uplink-bytes counter ends at the
// sum of the rows' UplinkBytes). Each trial's ledger charges land under
// their own entity — "<carrier>/base" and "<carrier>/pogo" — so the table
// can be regenerated from the accounting alone. reg may be nil.
func Table3Obs(reg *obs.Registry) []Table3Row {
	rows := make([]Table3Row, 0, 3)
	for _, carrier := range radio.Carriers() {
		tag := strings.ToLower(carrier.Name)
		base := runPowerTrial(powerTrialConfig{Carrier: carrier, Obs: reg,
			ObsDevice: tag + "/base"})
		with := runPowerTrial(powerTrialConfig{Carrier: carrier, WithPogo: true, Obs: reg,
			ObsDevice: tag + "/pogo"})
		rows = append(rows, Table3Row{
			Carrier:     carrier.Name,
			WithoutPogo: base.Joules,
			WithPogo:    with.Joules,
			IncreasePct: 100 * (with.Joules - base.Joules) / base.Joules,
			PogoTails:   with.PogoTails,
			BatchSize:   with.MeanBatchSize,
			UplinkBytes: with.UplinkBytes,
		})
	}
	return rows
}

// RenderTable3 prints the rows in the paper's format.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: power consumption with- and without Pogo (1 h, e-mail every 5 min,\n")
	sb.WriteString("battery sampled 1/min, tail-synchronized transmission)\n")
	fmt.Fprintf(&sb, "%-10s %14s %12s %10s %10s %8s\n",
		"Carrier", "Without Pogo", "With Pogo", "Increase", "PogoTails", "Batch")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12.2f J %10.2f J %9.2f%% %10d %8.1f\n",
			r.Carrier, r.WithoutPogo, r.WithPogo, r.IncreasePct, r.PogoTails, r.BatchSize)
	}
	return sb.String()
}

// Figure3Marks are the annotated instants of the tail-energy trace.
type Figure3Marks struct {
	A time.Time // ramp-up starts
	B time.Time // transmission ends (DCH tail begins)
	C time.Time // DCH → FACH
	D time.Time // FACH → idle
}

// Figure3Result is the §4.7 trace: one e-mail check on the KPN network.
type Figure3Result struct {
	Carrier string
	Trace   []energy.Sample
	Start   time.Time
	Marks   Figure3Marks
	// TailEnergy is the B→D joules; ActiveEnergy is A→B.
	TailEnergy   float64
	ActiveEnergy float64
}

// Figure3 records the power trace of a single transmission with its RRC
// marks.
func Figure3(carrier radio.CarrierProfile) Figure3Result {
	clk := vclock.NewSim()
	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, carrier)

	res := Figure3Result{Carrier: carrier.Name, Start: clk.Now()}
	modem.OnStateChange(func(_, to radio.State, at time.Time) {
		switch to {
		case radio.RampUp:
			res.Marks.A = at
		case radio.DCHTail:
			res.Marks.B = at
		case radio.FACHTail:
			res.Marks.C = at
		case radio.Idle:
			res.Marks.D = at
		}
	})

	clk.Advance(5 * time.Second) // settle to sleep
	meter.StartTrace()
	droid.SetAlarm(time.Second, func() {
		droid.AcquireWakeLock("email")
		modem.Transfer(2048, 12288, func() {
			clk.AfterFunc(300*time.Millisecond, func() { droid.ReleaseWakeLock("email") })
		})
	})
	clk.Advance(90 * time.Second)
	res.Trace = meter.StopTrace()
	res.ActiveEnergy = energy.TraceEnergy(res.Trace, res.Marks.A, res.Marks.B)
	res.TailEnergy = energy.TraceEnergy(res.Trace, res.Marks.B, res.Marks.D)
	return res
}

// Render prints the Figure 3 trace with the a/b/c/d marks.
func (f Figure3Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: tail energy of one transmission on %s\n", f.Carrier)
	fmt.Fprintf(&sb, "a (ramp-up start)  t=%6.2fs\n", f.Marks.A.Sub(f.Start).Seconds())
	fmt.Fprintf(&sb, "b (tx end)         t=%6.2fs\n", f.Marks.B.Sub(f.Start).Seconds())
	fmt.Fprintf(&sb, "c (DCH→FACH)       t=%6.2fs  (b→c = %.1fs)\n",
		f.Marks.C.Sub(f.Start).Seconds(), f.Marks.C.Sub(f.Marks.B).Seconds())
	fmt.Fprintf(&sb, "d (FACH→idle)      t=%6.2fs  (c→d = %.1fs, tail b→d = %.1fs)\n",
		f.Marks.D.Sub(f.Start).Seconds(), f.Marks.D.Sub(f.Marks.C).Seconds(),
		f.Marks.D.Sub(f.Marks.B).Seconds())
	fmt.Fprintf(&sb, "active energy a→b: %.2f J   tail energy b→d: %.2f J (%.0f%% of total)\n",
		f.ActiveEnergy, f.TailEnergy, 100*f.TailEnergy/(f.ActiveEnergy+f.TailEnergy))
	sb.WriteString(energy.RenderTrace(energy.Resample(f.Trace, f.Start, f.Marks.D.Add(5*time.Second), 2*time.Second), f.Start, 50))
	return sb.String()
}

// Figure4Result is the activity timeline of §4.7's Figure 4.
type Figure4Result struct {
	Start time.Time
	End   time.Time
	Spans []android.Span
}

// Figure4 runs Pogo (tail-sync) next to the e-mail app and records when the
// CPU, the e-mail app, and Pogo were active.
func Figure4(duration time.Duration) Figure4Result {
	log := android.NewActivityLog()
	cfg := powerTrialConfig{
		Carrier: radio.KPN, Duration: duration, WithPogo: true, Log: log,
	}
	res := runPowerTrial(cfg)
	return Figure4Result{
		Start: res.TraceStart,
		End:   res.TraceStart.Add(duration),
		Spans: log.Spans(),
	}
}

// Render draws the Figure 4 timeline as ASCII rows.
func (f Figure4Result) Render() string {
	names := []string{"cpu", "email", "pogo-tx"}
	width := 100
	total := f.End.Sub(f.Start)
	var sb strings.Builder
	sb.WriteString("Figure 4: Pogo synchronizing with the e-mail application\n")
	for _, name := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range f.Spans {
			if s.Name != name || s.End.Before(f.Start) || s.Start.After(f.End) {
				continue
			}
			from := int(float64(s.Start.Sub(f.Start)) / float64(total) * float64(width))
			to := int(float64(s.End.Sub(f.Start)) / float64(total) * float64(width))
			if from < 0 {
				from = 0
			}
			if to >= width {
				to = width - 1
			}
			for i := from; i <= to; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&sb, "%-8s |%s|\n", name, row)
	}
	fmt.Fprintf(&sb, "          %s → %s\n", f.Start.Format("15:04:05"), f.End.Format("15:04:05"))
	return sb.String()
}
