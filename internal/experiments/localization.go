package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pogo/internal/android"
	"pogo/internal/cluster"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/env"
	"pogo/internal/geo"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/pubsub"
	"pogo/internal/radio"
	"pogo/internal/script/scripts"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// FaultKind classifies the deployment incidents of §5.3.
type FaultKind int

// Fault kinds.
const (
	// FaultReboot power-cycles the phone: the node goes down for two
	// minutes and comes back with fresh processes (scripts redeployed via
	// @hello; in-memory state lost; frozen state survives when enabled).
	FaultReboot FaultKind = iota + 1
	// FaultOffline disables data connectivity between At and Until (user
	// 2a's roaming trip, user 3's broken 3G) — scanning continues, messages
	// buffer and age out after 24 h.
	FaultOffline
	// FaultScriptUpdate redeploys clustering.js with a new version marker,
	// restarting it mid-dwell (the paper's "when we uploaded a new version
	// of the script").
	FaultScriptUpdate
)

// Fault is one scheduled incident.
type Fault struct {
	Kind  FaultKind
	At    time.Duration // offset from session start
	Until time.Duration // for FaultOffline
}

// SessionConfig describes one user session of the deployment.
type SessionConfig struct {
	User     string
	DeviceID string
	// StartOffset delays the session start within the experiment (user 2b
	// begins when 2a's phone is replaced).
	StartOffset time.Duration
	Duration    time.Duration
	Seed        int64
	// WifiOnly models user 7 (no mobile internet): connectivity exists only
	// while dwelling at a place with Wi-Fi.
	WifiOnly bool
	Faults   []Fault
}

// Table4Config drives the whole experiment.
type Table4Config struct {
	Seed int64
	// Days is the experiment length; the paper ran 24.
	Days int
	// FreezeThaw enables persistent script state. The as-deployed paper
	// version did NOT have it (it was added afterwards, §5.3); disable to
	// reproduce the paper's match percentages, enable for the ablation.
	FreezeThaw bool
	// Sessions overrides the default 9-session roster (tests use fewer).
	Sessions []SessionConfig
	// WorkDir hosts the durable outbox files; defaults to a temp dir.
	WorkDir string
	// Obs, when non-nil, instruments every session's nodes into this
	// registry. Device charges land under the session's DeviceID entity; the
	// collector's "clusters" channel row accumulates the payload bytes that
	// actually crossed the network, and a counterfactual
	// (DeviceID, "scan.js", "wifi-scan-raw") row accumulates what shipping
	// raw scans would have cost — the two sides of the §5.3 reduction.
	Obs *obs.Registry
}

// DefaultSessions builds the paper's 9 sessions (8 users; user 2 split into
// 2a/2b when the phone was swapped).
func DefaultSessions(days int) []SessionConfig {
	d := 24 * time.Hour
	full := time.Duration(days) * d
	frac := func(num, den int) time.Duration {
		return full * time.Duration(num) / time.Duration(den)
	}
	return []SessionConfig{
		{User: "User 1", DeviceID: "dev1", Duration: full, Seed: 101,
			Faults: []Fault{{Kind: FaultReboot, At: frac(1, 3)}, {Kind: FaultScriptUpdate, At: frac(1, 2)}}},
		// User 2a: own phone, trip abroad with data roaming off; session
		// ends when the phone is replaced.
		{User: "User 2a", DeviceID: "dev2a", Duration: frac(8, 24), Seed: 102,
			Faults: []Fault{{Kind: FaultOffline, At: frac(4, 24), Until: frac(7, 24)}}},
		{User: "User 2b", DeviceID: "dev2b", StartOffset: frac(8, 24), Duration: frac(5, 24), Seed: 102,
			Faults: []Fault{{Kind: FaultReboot, At: frac(2, 24)}}},
		// User 3: broken 3G for two days; many reboots.
		{User: "User 3", DeviceID: "dev3", Duration: full, Seed: 103,
			Faults: []Fault{
				{Kind: FaultOffline, At: frac(10, 24), Until: frac(12, 24)},
				{Kind: FaultReboot, At: frac(5, 24)}, {Kind: FaultReboot, At: frac(15, 24)},
				{Kind: FaultReboot, At: frac(20, 24)}, {Kind: FaultScriptUpdate, At: frac(1, 2)},
			}},
		{User: "User 4", DeviceID: "dev4", Duration: full, Seed: 104,
			Faults: []Fault{{Kind: FaultReboot, At: frac(2, 5)}, {Kind: FaultScriptUpdate, At: frac(1, 2)}}},
		{User: "User 5", DeviceID: "dev5", Duration: full, Seed: 105,
			Faults: []Fault{{Kind: FaultScriptUpdate, At: frac(1, 2)}}},
		{User: "User 6", DeviceID: "dev6", Duration: full, Seed: 106,
			Faults: []Fault{{Kind: FaultReboot, At: frac(1, 4)}, {Kind: FaultReboot, At: frac(3, 4)},
				{Kind: FaultScriptUpdate, At: frac(1, 2)}}},
		// User 7: Wi-Fi offload only.
		{User: "User 7", DeviceID: "dev7", Duration: full, Seed: 107, WifiOnly: true,
			Faults: []Fault{{Kind: FaultScriptUpdate, At: frac(1, 2)}}},
		{User: "User 8", DeviceID: "dev8", Duration: full, Seed: 108,
			Faults: []Fault{{Kind: FaultReboot, At: frac(3, 5)}, {Kind: FaultScriptUpdate, At: frac(1, 2)}}},
	}
}

// SessionResult is one Table 4 row.
type SessionResult struct {
	User         string
	Scans        int
	RawBytes     int64
	Locations    int
	ClusterBytes int64
	MatchPct     float64
	PartialPct   float64
}

// Table4Result aggregates the experiment.
type Table4Result struct {
	Rows []SessionResult
	// ReductionPct is the §5.3 headline: how much transfer volume on-line
	// clustering saved versus shipping raw scans.
	ReductionPct float64
	TotalScans   int
	TotalPlaces  int
}

// Table4 reruns the §5.3 deployment on the synthetic world.
func Table4(cfg Table4Config) (Table4Result, error) {
	if cfg.Days == 0 {
		cfg.Days = 24
	}
	if cfg.Sessions == nil {
		cfg.Sessions = DefaultSessions(cfg.Days)
	}
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "pogo-table4-")
		if err != nil {
			return Table4Result{}, err
		}
		defer os.RemoveAll(dir)
		cfg.WorkDir = dir
	}
	world := env.NewWorld(cfg.Seed + 1)

	var out Table4Result
	for _, sess := range cfg.Sessions {
		row, err := runSession(world, sess, cfg)
		if err != nil {
			return out, fmt.Errorf("session %s: %w", sess.User, err)
		}
		out.Rows = append(out.Rows, row)
		out.TotalScans += row.Scans
		out.TotalPlaces += row.Locations
	}
	var raw, clustered int64
	for _, r := range out.Rows {
		raw += r.RawBytes
		clustered += r.ClusterBytes
	}
	if raw > 0 {
		out.ReductionPct = 100 * (1 - float64(clustered)/float64(raw))
	}
	return out, nil
}

// rawScan is one ground-truth scan record.
type rawScan struct {
	t   time.Time
	aps []sensors.AccessPoint
}

// runSession simulates one user's deployment session end to end.
func runSession(world *env.World, sess SessionConfig, cfg Table4Config) (SessionResult, error) {
	clk := vclock.NewSimAt(vclock.SimEpoch.Add(sess.StartOffset))
	sb := transport.NewSwitchboard(clk)
	sb.Associate("collector", sess.DeviceID)

	// Collector with the full pipeline: geocoder + collect.js, plus a Go
	// tap on the clusters channel for the Table 4 accounting.
	colPort := sb.Port("collector", nil)
	col, err := core.NewNode(core.Config{
		ID: "collector", Mode: core.CollectorMode, Clock: clk, Messenger: colPort,
		Obs: cfg.Obs,
	})
	if err != nil {
		return SessionResult{}, err
	}
	defer col.Close()
	db := geo.NewDB()
	schedule := world.GenerateSchedule(sess.User, env.ScheduleConfig{
		Start: clk.Now(), Days: cfg.Days, Seed: sess.Seed,
	})
	world.SurveyInto(db)
	svc := geo.NewService(db, col.LocalContext().Broker())
	defer svc.Close()

	var reported []cluster.Cluster
	var clusterBytes int64
	col.LocalContext().Broker().Subscribe("clusters", nil, func(ev pubsub.Event) {
		if ev.Origin == "" {
			return
		}
		c, ok := clusterFromMsg(ev.Message.Map())
		if !ok {
			return
		}
		reported = append(reported, c)
		if b, err := msg.EncodeJSON(ev.Message); err == nil {
			clusterBytes += int64(len(b))
		}
	})

	if err := col.DeployLocal("collect.js", scripts.MustSource("collect.js")); err != nil {
		return SessionResult{}, err
	}
	if err := col.Deploy("scan.js", scripts.MustSource("scan.js")); err != nil {
		return SessionResult{}, err
	}
	if err := col.Deploy("clustering.js", scripts.MustSource("clustering.js")); err != nil {
		return SessionResult{}, err
	}

	// Device-side state that persists across reboots.
	var storage store.KV
	if cfg.FreezeThaw {
		storage = store.NewMemKV()
	} else {
		storage = blackholeKV{} // the as-deployed version had no freeze/thaw
	}
	outboxPath := filepath.Join(cfg.WorkDir, sess.DeviceID+".outbox")
	view := env.NewDeviceView(clk, schedule, sess.Seed+7)

	var raws []rawScan
	var rawBytes int64
	// Counterfactual ledger row: what shipping every raw scan would have
	// cost in uplink payload bytes had clustering.js not run on the phone.
	rawMeter := cfg.Obs.Meter(sess.DeviceID, "scan.js", "wifi-scan-raw")
	view.OnScan = func(t time.Time, aps []sensors.AccessPoint) {
		cp := make([]sensors.AccessPoint, len(aps))
		copy(cp, aps)
		raws = append(raws, rawScan{t: t, aps: cp})
		list := make([]msg.Value, 0, len(aps))
		for _, ap := range aps {
			list = append(list, ap.Message())
		}
		if b, err := msg.EncodeJSON(msg.Map{"aps": list, "timestamp": float64(t.UnixMilli())}); err == nil {
			rawBytes += int64(len(b))
			rawMeter.AddUplink(int64(len(b)))
		}
	}

	dev := &sessionDevice{
		clk: clk, sb: sb, sess: sess, storage: storage,
		outboxPath: outboxPath, view: view, obs: cfg.Obs,
	}
	if err := dev.boot(); err != nil {
		return SessionResult{}, err
	}
	defer dev.shutdown()

	// Schedule faults.
	for _, f := range sess.Faults {
		f := f
		if f.At >= sess.Duration {
			continue
		}
		switch f.Kind {
		case FaultReboot:
			clk.AfterFunc(f.At, func() {
				dev.shutdown()
				clk.AfterFunc(2*time.Minute, func() { dev.boot() })
			})
		case FaultOffline:
			clk.AfterFunc(f.At, func() { dev.forceOffline(true) })
			until := f.Until
			if until <= f.At {
				until = f.At + time.Hour
			}
			clk.AfterFunc(until, func() { dev.forceOffline(false) })
		case FaultScriptUpdate:
			clk.AfterFunc(f.At, func() {
				col.Deploy("clustering.js",
					"// field update v2\n"+scripts.MustSource("clustering.js"))
			})
		}
	}

	// User 7's connectivity follows Wi-Fi availability: check every minute.
	if sess.WifiOnly {
		stop := dev.pollWifiCoverage(schedule)
		defer stop()
	}

	// Run the session. Advance in day-sized chunks to bound event-queue
	// growth in pathological cases.
	remaining := sess.Duration
	for remaining > 0 {
		step := 24 * time.Hour
		if step > remaining {
			step = remaining
		}
		clk.Advance(step)
		remaining -= step
	}
	// Drain in-flight deliveries (final flush happens on the next interval;
	// give it one more period plus transfer time).
	dev.flushNow()
	clk.Advance(10 * time.Minute)

	// Ground truth: the Go reference clustering over the raw SD-card trace,
	// sanitized exactly like scan.js does.
	var truthTrace []cluster.Sample
	for _, r := range raws {
		aps := make(map[string]float64)
		for _, ap := range r.aps {
			if ap.LocallyAdministered {
				continue
			}
			aps[ap.BSSID] = env.NormalizeRSSI(ap.RSSI)
		}
		if len(aps) == 0 {
			continue
		}
		truthTrace = append(truthTrace, cluster.Sample{T: float64(r.t.UnixMilli()), APs: aps})
	}
	truth := cluster.Run(cluster.DefaultParams(), truthTrace, false)

	kinds := cluster.MatchClusters(truth, reported, cluster.DefaultParams().Eps, 1000)
	matchPct, partialPct := cluster.MatchStats(kinds)

	return SessionResult{
		User:         sess.User,
		Scans:        len(raws),
		RawBytes:     rawBytes,
		Locations:    len(reported),
		ClusterBytes: clusterBytes,
		MatchPct:     matchPct,
		PartialPct:   partialPct,
	}, nil
}

// sessionDevice owns the rebootable device-side stack of one session.
type sessionDevice struct {
	clk        *vclock.Sim
	sb         *transport.Switchboard
	sess       SessionConfig
	storage    store.KV
	outboxPath string
	view       *env.DeviceView
	obs        *obs.Registry

	node    *core.Node
	port    *transport.Port
	conn    *radio.Connectivity
	offline bool
	down    bool
}

// boot builds a fresh device stack (first boot and after reboots).
func (d *sessionDevice) boot() error {
	meter := energy.NewMeter(d.clk)
	droid := android.NewDevice(d.clk, meter, android.Config{})
	var conn *radio.Connectivity
	var modem *radio.Modem
	if d.sess.WifiOnly {
		wifi := radio.NewWifi(d.clk, meter)
		conn = radio.NewConnectivity(nil, wifi)
	} else {
		modem = radio.NewModem(d.clk, meter, radio.KPN)
		conn = radio.NewConnectivity(modem, nil)
	}
	if d.offline {
		conn.SetActive(radio.InterfaceNone)
	}
	port := d.sb.Port(d.sess.DeviceID, conn)
	node, err := core.NewNode(core.Config{
		ID: d.sess.DeviceID, Mode: core.DeviceMode, Clock: d.clk, Messenger: port,
		Device: droid, Modem: modem, Storage: d.storage, OutboxPath: d.outboxPath,
		FlushPolicy: core.FlushInterval, FlushEvery: 5 * time.Minute,
		Obs: d.obs,
	})
	if err != nil {
		return err
	}
	node.Sensors().Register(sensors.NewWifiScanSensor(node.Sensors(), d.view, sensors.WifiScanConfig{Meter: meter}))
	node.Sensors().Register(sensors.NewBatterySensor(node.Sensors(), droid))
	d.node, d.port, d.conn = node, port, conn
	d.down = false
	return nil
}

// shutdown tears the device stack down (reboot start / session end).
func (d *sessionDevice) shutdown() {
	if d.down || d.node == nil {
		return
	}
	d.down = true
	d.node.Close()
	d.port.Close()
}

// forceOffline toggles the data-roaming / broken-3G condition.
func (d *sessionDevice) forceOffline(off bool) {
	d.offline = off
	if d.down {
		return
	}
	if off {
		d.conn.SetActive(radio.InterfaceNone)
	} else if d.sess.WifiOnly {
		d.conn.SetActive(radio.InterfaceWifi)
	} else {
		d.conn.SetActive(radio.InterfaceCellular)
	}
}

// flushNow forces a final flush at session end.
func (d *sessionDevice) flushNow() {
	if !d.down && d.node != nil {
		d.node.Flush()
	}
}

// pollWifiCoverage drives user 7's connectivity: online only while dwelling
// somewhere with Wi-Fi.
func (d *sessionDevice) pollWifiCoverage(schedule *env.Schedule) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		if !d.down && !d.offline {
			if schedule.At(d.clk.Now()) != nil {
				d.conn.SetActive(radio.InterfaceWifi)
			} else {
				d.conn.SetActive(radio.InterfaceNone)
			}
		}
		d.clk.AfterFunc(time.Minute, tick)
	}
	d.clk.AfterFunc(time.Minute, tick)
	return func() { stopped = true }
}

// clusterFromMsg parses a clusters-channel message.
func clusterFromMsg(m msg.Map) (cluster.Cluster, bool) {
	enter, ok1 := msg.GetNumber(m, "enter")
	exit, ok2 := msg.GetNumber(m, "exit")
	samples, _ := msg.GetNumber(m, "samples")
	apsRaw, ok3 := m["aps"].(msg.Map)
	if !ok1 || !ok2 || !ok3 {
		return cluster.Cluster{}, false
	}
	aps := make(map[string]float64, len(apsRaw))
	for k, v := range apsRaw {
		if f, ok := v.(float64); ok {
			aps[k] = f
		}
	}
	return cluster.Cluster{Enter: enter, Exit: exit, Samples: int(samples), APs: aps}, true
}

// blackholeKV swallows writes: freeze/thaw becomes a no-op, reproducing the
// as-deployed version of the paper's clustering.js.
type blackholeKV struct{}

var _ store.KV = blackholeKV{}

func (blackholeKV) Put(string, []byte) error  { return nil }
func (blackholeKV) Get(string) ([]byte, bool) { return nil, false }
func (blackholeKV) Delete(string) error       { return nil }

// RenderTable4 prints the rows in the paper's format.
func RenderTable4(res Table4Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4: results of the localization experiment\n")
	fmt.Fprintf(&sb, "%-8s %8s %12s %10s %10s %7s %8s\n",
		"User", "Scans", "Size", "Locations", "Size", "Match", "Partial")
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%-8s %8d %12d %10d %10d %6.0f%% %7.0f%%\n",
			r.User, r.Scans, r.RawBytes, r.Locations, r.ClusterBytes, r.MatchPct, r.PartialPct)
	}
	fmt.Fprintf(&sb, "total: %d scans, %d locations; data reduced by %.1f%% via on-line clustering\n",
		res.TotalScans, res.TotalPlaces, res.ReductionPct)
	return sb.String()
}

// sortSessionRows keeps row order stable by user label (helper for tests).
func sortSessionRows(rows []SessionResult) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].User < rows[j].User })
}
