package main

// The hot-path microbenchmark suite and its regression gate. `pogo-bench
// -run hotpath` measures the zero-copy message path — broker fanout, the
// msg codecs, a full transport round trip, the file-backed outbox, the
// scheduler hop, and the two PogoScript handlers of the scan pipeline — with
// testing.Benchmark and records ns/op, B/op, allocs/op
// to BENCH_hotpath.json. With -gate it instead compares a fresh run against
// the checked-in baseline and fails on regressions (see gateHotpath for the
// thresholds and their rationale).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/pubsub"
	"pogo/internal/sched"
	"pogo/internal/script"
	"pogo/internal/script/scripts"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

const hotpathFileName = "BENCH_hotpath.json"

// hotpathResult is one benchmark row of BENCH_hotpath.json.
type hotpathResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type hotpathFile struct {
	Note    string          `json:"note"`
	Results []hotpathResult `json:"results"`
}

// hotpathPayload is a representative sensor reading: what a phone's battery
// or wifi script publishes every few seconds.
func hotpathPayload() msg.Map {
	return msg.Map{
		"voltage":   4.1,
		"level":     0.93,
		"plugged":   false,
		"timestamp": 1.7e12,
		"aps": []msg.Value{
			msg.Map{"bssid": "02:1b:77:49:54:fd", "rssi": -61.0},
			msg.Map{"bssid": "02:1b:77:1f:02:aa", "rssi": -74.0},
		},
	}
}

// hotpathScans generates encoded 20-AP Wi-Fi scans, as the broker hands them
// to subscribers, in the shape the wifi-scan sensor publishes and bench/'s scan_pipeline workload sends: each scan draws
// its access points from a pool of 80, about a tenth of them locally
// administered (scan.js drops those), integer RSSI.
func hotpathScans(n int) []msg.Raw {
	const apsPerScan = 20
	rng := rand.New(rand.NewSource(1))
	pool := make([]string, 4*apsPerScan)
	for i := range pool {
		pool[i] = fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			rng.Intn(256)&^2, rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
	}
	out := make([]msg.Raw, n)
	for i := range out {
		aps := make([]msg.Value, apsPerScan)
		for j, p := range rng.Perm(len(pool))[:apsPerScan] {
			aps[j] = msg.Map{
				"bssid": pool[p],
				"ssid":  fmt.Sprintf("net-%d", p),
				"rssi":  float64(-100 + rng.Intn(60)),
				"local": j > 0 && rng.Intn(10) == 0,
			}
		}
		out[i] = mustEncode(msg.Map{"timestamp": float64(i), "aps": aps})
	}
	return out
}

// mustEncode encodes a message the generators built, which always encodes.
func mustEncode(m msg.Map) msg.Raw {
	r, err := msg.Encode(m)
	if err != nil {
		panic(err)
	}
	return r
}

// hotpathSinkJS is the collector script of bench/'s scan_pipeline: one JSON
// line per sanitised scan.
const hotpathSinkJS = `subscribe('scans', function (m, origin) {
  logTo('sink', origin + ' ' + m.t + ' ' + json(m));
});`

// handlerHost is the script.Host of the handler rows: it keeps the handler
// a script subscribes and the last message it publishes, and drops the rest.
type handlerHost struct {
	handler   func(m msg.Value, origin string)
	published msg.Map
	err       error
}

func (h *handlerHost) Publish(_ string, m msg.Value) error {
	h.published, _ = m.(msg.Map)
	return nil
}
func (h *handlerHost) Subscribe(_ string, _ msg.Map, handler func(msg.Value, string)) (func(), func(), error) {
	h.handler = handler
	return func() {}, func() {}, nil
}
func (h *handlerHost) Print(string, string)             {}
func (h *handlerHost) Log(string, string, string)       {}
func (h *handlerHost) Freeze(string, msg.Value) error   { return nil }
func (h *handlerHost) Thaw(string) (msg.Value, bool)    { return nil, false }
func (h *handlerHost) SetTimeout(func(), time.Duration) {}
func (h *handlerHost) ReportError(_ string, err error)  { h.err = err }

// startHandler runs a script that subscribes to one channel and returns the
// host holding its handler.
func startHandler(b *testing.B, name, src string) *handlerHost {
	h := &handlerHost{}
	s, err := script.New(name, src, h, script.Config{})
	if err == nil {
		err = s.Start()
	}
	if err != nil || h.handler == nil {
		b.Fatalf("%s: err=%v, subscribed=%v", name, err, h.handler != nil)
	}
	return h
}

// hotpathBenchmarks returns the suite in display order. Each entry is a
// standard testing benchmark body; allocations are always reported.
func hotpathBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"publish_fanout_1k", func(b *testing.B) {
			br := pubsub.New()
			for i := 0; i < 1000; i++ {
				br.Subscribe("bench", nil, func(pubsub.Event) {})
			}
			payload := hotpathPayload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Publish("bench", payload)
			}
		}},
		{"publish_fanout_1k_prefrozen", func(b *testing.B) {
			// A message published encoded already, as a script forwards what
			// it received: delivered as it is.
			br := pubsub.New()
			for i := 0; i < 1000; i++ {
				br.Subscribe("bench", nil, func(pubsub.Event) {})
			}
			payload := mustEncode(hotpathPayload())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.PublishRaw("bench", payload)
			}
		}},
		{"msg_encode_binary", func(b *testing.B) {
			payload := hotpathPayload()
			var buf []byte
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = msg.AppendBinary(buf[:0], payload); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"msg_decode_binary", func(b *testing.B) {
			// What the receive path does with a body: validate it and hand
			// it on as the message, building no tree.
			wire, err := msg.AppendBinary(nil, hotpathPayload())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := msg.ParseRaw(wire); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"msg_encode_json", func(b *testing.B) {
			payload := hotpathPayload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := msg.EncodeJSON(payload); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"transport_roundtrip", func(b *testing.B) {
			// Full reliable-delivery round trip on the simulated switchboard:
			// enqueue → binary envelope → CRC frame → wire → decode →
			// deduplicate → deliver → ack, all in simulated time.
			clk := vclock.NewSim()
			sw := transport.NewSwitchboard(clk)
			sw.Associate("phone", "collector")
			phone := transport.NewEndpoint(sw.Port("phone", nil), store.OpenMemory(), clk,
				transport.EndpointConfig{BootID: "bench"})
			collector := transport.NewEndpoint(sw.Port("collector", nil), store.OpenMemory(), clk,
				transport.EndpointConfig{BootID: "bench"})
			delivered := 0
			collector.OnMessage(func(string, string, msg.Value) { delivered++ })
			payload := hotpathPayload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := phone.Enqueue("collector", "bench", payload); err != nil {
					b.Fatal(err)
				}
				phone.Flush()
				clk.Advance(20 * time.Millisecond) // wire latency + ack
			}
			b.StopTimer()
			if delivered != b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
		}},
		{"transport_roundtrip_1k_conns", func(b *testing.B) {
			// The same round trip with 1000 live connections on the
			// switchboard: per-op cost must not degrade as rosters, dedup
			// cursors, and sequence maps grow with the fleet.
			const conns = 1000
			clk := vclock.NewSim()
			sw := transport.NewSwitchboard(clk)
			collector := transport.NewEndpoint(sw.Port("collector", nil), store.OpenMemory(), clk,
				transport.EndpointConfig{BootID: "bench"})
			delivered := 0
			collector.OnMessage(func(string, string, msg.Value) { delivered++ })
			phones := make([]*transport.Endpoint, conns)
			for i := range phones {
				name := "d" + strconv.Itoa(i)
				sw.Associate(name, "collector")
				phones[i] = transport.NewEndpoint(sw.Port(name, nil), store.OpenMemory(), clk,
					transport.EndpointConfig{BootID: "bench"})
			}
			payload := hotpathPayload()
			// Prime every connection once so the bench measures steady
			// state, not first-touch map growth.
			for _, p := range phones {
				if err := p.Enqueue("collector", "bench", payload); err != nil {
					b.Fatal(err)
				}
				p.Flush()
			}
			clk.Advance(20 * time.Millisecond)
			primed := delivered
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := phones[i%conns]
				if err := p.Enqueue("collector", "bench", payload); err != nil {
					b.Fatal(err)
				}
				p.Flush()
				clk.Advance(20 * time.Millisecond)
			}
			b.StopTimer()
			if delivered != primed+b.N {
				b.Fatalf("delivered %d of %d", delivered-primed, b.N)
			}
		}},
		{"flush_one_new_10_inflight", func(b *testing.B) { benchFlushOneNew(b, 10) }},
		{"flush_one_new_1k_inflight", func(b *testing.B) { benchFlushOneNew(b, 1000) }},
		{"store_add_ack_file", func(b *testing.B) {
			// The file-backed outbox as a stream drives it: one Add and the
			// Ack of the oldest entry, 64 outstanding. Each is one record
			// built in the outbox's buffer and one write; the entry keeps
			// the payload it is handed.
			dir, err := os.MkdirTemp("", "pogo-hotpath-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			box, err := store.Open(filepath.Join(dir, "outbox.log"))
			if err != nil {
				b.Fatal(err)
			}
			defer box.Close()
			payload, err := msg.AppendBinary(nil, hotpathPayload())
			if err != nil {
				b.Fatal(err)
			}
			const backlog = 64
			var ring [backlog]uint64
			add := func(i int) {
				id, err := box.Add("collector", "bench", uint64(i), payload, vclock.SimEpoch)
				if err != nil {
					b.Fatal(err)
				}
				ring[i%backlog] = id
			}
			for i := 0; i < backlog; i++ {
				add(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := backlog; i < backlog+b.N; i++ {
				oldest := ring[i%backlog]
				add(i)
				if err := box.Ack(oldest); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if box.Len() != backlog {
				b.Fatalf("%d buffered, want %d", box.Len(), backlog)
			}
		}},
		{"script_scan_handler", func(b *testing.B) {
			// scan.js on one encoded 20-AP scan: read through a view, build
			// the sanitised object, convert it for publish.
			h := startHandler(b, "scan.js", scripts.MustSource("scan.js"))
			scans := hotpathScans(64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.handler(scans[i%len(scans)], "")
			}
			b.StopTimer()
			if h.err != nil || h.published == nil {
				b.Fatalf("scan.js: err=%v, published=%v", h.err, h.published)
			}
		}},
		{"script_sink_handler", func(b *testing.B) {
			// The collector's logger on what scan.js published, as the
			// wire delivers it: json() of an untouched view transcodes the
			// message's bytes.
			scan := startHandler(b, "scan.js", scripts.MustSource("scan.js"))
			scans := hotpathScans(64)
			wire := make([]msg.Raw, len(scans))
			for i, m := range scans {
				scan.handler(m, "")
				wire[i] = mustEncode(scan.published)
			}
			h := startHandler(b, "sink.js", hotpathSinkJS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.handler(wire[i%len(wire)], "phone-0")
			}
			b.StopTimer()
			if h.err != nil {
				b.Fatal(h.err)
			}
		}},
		{"sched_submit_real", func(b *testing.B) {
			// Submit → task start on the system clock, one name, its lane
			// already running: the hop every message takes into a script and
			// into the flush. The one allocation is this loop's closure;
			// core submits tasks it built once.
			s := sched.New(vclock.Real{}, nil)
			defer s.Close()
			started := make(chan int)
			s.Submit("bench", func() { started <- -1 })
			<-started
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Submit("bench", func() { started <- i })
				if got := <-started; got != i {
					b.Fatalf("task %d started when %d was submitted", got, i)
				}
			}
		}},
	}
}

// benchPort is a synchronous in-process messenger: Send runs the peer's
// receive handler before it returns, so a flush's ack is back by the time
// Flush is — one op is the whole enqueue → flush → deliver → ack cycle with
// no simulated network in between. While drop is set, payloads vanish.
type benchPort struct {
	id   string
	peer *benchPort
	recv func(from string, payload []byte)
	buf  []byte
	drop bool
}

func (p *benchPort) LocalID() string { return p.id }
func (p *benchPort) Online() bool    { return true }
func (p *benchPort) Send(to string, payload []byte) error {
	if p.drop {
		return nil
	}
	// The receiver gets its own copy, as over any real link; the buffer is
	// free again when Send returns (a nested ack uses the peer's buffer).
	p.buf = append(p.buf[:0], payload...)
	p.peer.recv(p.id, p.buf)
	return nil
}
func (p *benchPort) OnReceive(fn func(from string, payload []byte)) { p.recv = fn }
func (p *benchPort) OnOnline(func())                                {}
func (p *benchPort) OnPresence(func(peer string, online bool))      {}
func (p *benchPort) Peers() []string                                { return []string{p.peer.id} }

// idleClock stands still and never fires. The flush rows measure what a
// flush computes; on a simulated clock every op would also pay for the event
// the re-armed retry timer leaves in the simulator's queue.
type idleClock struct{ now time.Time }

func (c idleClock) Now() time.Time                               { return c.now }
func (c idleClock) AfterFunc(time.Duration, func()) vclock.Timer { return idleTimer{} }

type idleTimer struct{}

func (idleTimer) Stop() bool { return true }

// benchFlushOneNew measures "enqueue one message and flush it" on an
// endpoint that already has `inflight` entries sent and unacknowledged (on
// another channel, backoff an hour away). The cost of a flush must follow
// what it sends, not what is pending: the 1k row should read like the 10 row. The one
// allocation per op is the outbox taking its own copy of the payload.
func benchFlushOneNew(b *testing.B, inflight int) {
	clk := idleClock{now: vclock.SimEpoch}
	pp, cp := &benchPort{id: "phone"}, &benchPort{id: "collector"}
	pp.peer, cp.peer = cp, pp
	cfg := transport.EndpointConfig{BootID: "bench", RetryAfter: time.Hour}
	phone := transport.NewEndpoint(pp, store.OpenMemory(), clk, cfg)
	transport.NewEndpoint(cp, store.OpenMemory(), clk, cfg)
	payload := hotpathPayload()
	pp.drop = true
	for i := 0; i < inflight; i++ {
		if err := phone.Enqueue("collector", "stuck", payload); err != nil {
			b.Fatal(err)
		}
		phone.Flush()
	}
	pp.drop = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := phone.Enqueue("collector", "bench", payload); err != nil {
			b.Fatal(err)
		}
		phone.Flush()
	}
	b.StopTimer()
	if st := phone.Stats(); phone.Pending() != inflight || st.Retries != 0 || st.MessagesSent != inflight+b.N {
		b.Fatalf("pending %d (want %d), retries %d, sent %d of %d",
			phone.Pending(), inflight, st.Retries, st.MessagesSent, inflight+b.N)
	}
}

// runHotpath measures the suite and either records a new baseline or (gate)
// compares against the checked-in one.
func runHotpath(gate bool) error {
	fresh := make([]hotpathResult, 0, 8)
	for _, bench := range hotpathBenchmarks() {
		r := testing.Benchmark(bench.fn)
		res := hotpathResult{
			Name:        bench.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fresh = append(fresh, res)
		fmt.Printf("%-28s %12.1f ns/op %10d B/op %8d allocs/op\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	if gate {
		return gateHotpath(fresh)
	}
	b, err := json.MarshalIndent(hotpathFile{
		Note:    "hot-path baseline; `pogo-bench -run hotpath -gate` (make bench-gate) fails on >15% B/op or allocs/op regressions",
		Results: fresh,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(hotpathFileName, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("baseline written to %s\n", hotpathFileName)
	return nil
}

// gateThresholdPct is the regression budget: a fresh run may exceed the
// baseline by up to 15% before the gate fails. B/op and allocs/op are hard
// failures — allocation counts are a property of the code, not the machine,
// so any real increase is a code regression. ns/op only warns: wall-clock
// shifts with the host, so it is signal for a human, not for CI.
const gateThresholdPct = 15.0

// gateSlack absorbs quantization on tiny baselines: a change must exceed
// both the percentage threshold and this absolute floor (2 allocs, 64 bytes)
// to fail, so a 1→2 allocs/op jitter on a near-zero row does not break CI.
const (
	gateSlackAllocs = 2
	gateSlackBytes  = 64
)

// flushScaleLimit bounds flush_one_new_1k_inflight's ns/op relative to
// flush_one_new_10_inflight's. A flush that looks at the whole backlog reads
// two orders of magnitude here; one that does not reads 1.0, so 2 leaves
// room for noise and none for a scan.
const flushScaleLimit = 2.0

func gateHotpath(fresh []hotpathResult) error {
	data, err := os.ReadFile(hotpathFileName)
	if err != nil {
		return fmt.Errorf("no baseline (%v); run `pogo-bench -run hotpath` and commit %s", err, hotpathFileName)
	}
	var base hotpathFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("corrupt baseline %s: %v", hotpathFileName, err)
	}
	baseline := make(map[string]hotpathResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}

	pct := func(old, new float64) float64 {
		if old == 0 {
			if new == 0 {
				return 0
			}
			return 100
		}
		return 100 * (new - old) / old
	}
	fmt.Printf("\nbench gate vs %s (fail: B/op or allocs/op worse by >%.0f%%; ns/op advisory)\n",
		hotpathFileName, gateThresholdPct)
	fmt.Printf("%-28s %14s %14s %14s\n", "benchmark", "ns/op Δ", "B/op Δ", "allocs/op Δ")
	failures := 0
	for _, f := range fresh {
		b, ok := baseline[f.Name]
		if !ok {
			fmt.Printf("%-28s %14s %14s %14s  (new: no baseline)\n", f.Name, "-", "-", "-")
			continue
		}
		dNs := pct(b.NsPerOp, f.NsPerOp)
		dBytes := pct(float64(b.BytesPerOp), float64(f.BytesPerOp))
		dAllocs := pct(float64(b.AllocsPerOp), float64(f.AllocsPerOp))
		verdict := ""
		if dBytes > gateThresholdPct && f.BytesPerOp-b.BytesPerOp > gateSlackBytes {
			verdict = "FAIL B/op"
			failures++
		}
		if dAllocs > gateThresholdPct && f.AllocsPerOp-b.AllocsPerOp > gateSlackAllocs {
			if verdict != "" {
				verdict += "+allocs"
			} else {
				verdict = "FAIL allocs/op"
			}
			failures++
		}
		if verdict == "" && dNs > gateThresholdPct {
			verdict = "warn ns/op (advisory)"
		}
		fmt.Printf("%-28s %+13.1f%% %+13.1f%% %+13.1f%%  %s\n", f.Name, dNs, dBytes, dAllocs, verdict)
	}
	for name := range baseline {
		found := false
		for _, f := range fresh {
			if f.Name == name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-28s  removed from suite but still in baseline\n", name)
		}
	}
	// The one wall-clock figure that is a property of the code: both flush
	// rows ran in this process on this machine, so their ratio says whether
	// a flush still costs what it sends rather than what is pending.
	byName := make(map[string]hotpathResult, len(fresh))
	for _, f := range fresh {
		byName[f.Name] = f
	}
	if few, many := byName["flush_one_new_10_inflight"], byName["flush_one_new_1k_inflight"]; few.NsPerOp > 0 {
		ratio := many.NsPerOp / few.NsPerOp
		verdict := ""
		if ratio > flushScaleLimit {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("flush at 1k inflight / at 10 inflight: %.2fx (fail above %.1fx)  %s\n", ratio, flushScaleLimit, verdict)
	}
	if failures > 0 {
		return fmt.Errorf("bench gate: %d hard regression(s); if intended, regenerate the baseline with `pogo-bench -run hotpath`", failures)
	}
	fmt.Println("bench gate: PASS")
	return nil
}
