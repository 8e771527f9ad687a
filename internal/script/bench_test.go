package script

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/script/scripts"
)

// BenchmarkScanHandler and BenchmarkSinkHandler are the script rows of
// `pogo-bench -run hotpath` (script_scan_handler, script_sink_handler) on the
// same inputs, so that the two can be timed in-package with -count:
//
//	go test -run '^$' -bench 'Handler$' -count 10 ./internal/script

// benchHost keeps the handler a script subscribes and the last message it
// publishes, and drops the rest.
type benchHost struct {
	handler   func(m msg.Value, origin string)
	published msg.Value
	err       error
}

func (h *benchHost) Publish(_ string, m msg.Value) error {
	h.published = m
	return nil
}
func (h *benchHost) Subscribe(_ string, _ msg.Map, handler func(msg.Value, string)) (func(), func(), error) {
	h.handler = handler
	return func() {}, func() {}, nil
}
func (h *benchHost) Print(string, string)             {}
func (h *benchHost) Log(string, string, string)       {}
func (h *benchHost) Freeze(string, msg.Value) error   { return nil }
func (h *benchHost) Thaw(string) (msg.Value, bool)    { return nil, false }
func (h *benchHost) SetTimeout(func(), time.Duration) {}
func (h *benchHost) ReportError(_ string, err error)  { h.err = err }

func startBench(b *testing.B, name, src string) *benchHost {
	h := &benchHost{}
	s, err := New(name, src, h, Config{})
	if err == nil {
		err = s.Start()
	}
	if err != nil || h.handler == nil {
		b.Fatalf("%s: err=%v, subscribed=%v", name, err, h.handler != nil)
	}
	return h
}

// benchScans returns n encoded 20-AP wifi-scan messages drawn as the hotpath
// suite draws them: BSSIDs from a seeded pool of 80, integer RSSI, a tenth
// of the access points after the first locally administered.
func benchScans(b *testing.B, n int) []msg.Raw {
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
		r, err := msg.Encode(msg.Map{"timestamp": float64(i), "aps": aps})
		if err != nil {
			b.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// BenchmarkScanHandler: scan.js on one encoded 20-AP scan — read through a
// view, build the sanitised object, convert it for publish.
func BenchmarkScanHandler(b *testing.B) {
	h := startBench(b, "scan.js", scripts.MustSource("scan.js"))
	scans := benchScans(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.handler(scans[i%len(scans)], "")
	}
	b.StopTimer()
	if h.err != nil || h.published == nil {
		b.Fatalf("scan.js: err=%v, published=%v", h.err, h.published)
	}
}

// BenchmarkSinkHandler: the collector's logger on what scan.js published, as
// the wire delivers it — json() of an untouched view transcodes the bytes.
func BenchmarkSinkHandler(b *testing.B) {
	scan := startBench(b, "scan.js", scripts.MustSource("scan.js"))
	scans := benchScans(b, 64)
	wire := make([]msg.Raw, len(scans))
	for i, m := range scans {
		scan.handler(m, "")
		r, err := msg.Encode(scan.published)
		if err != nil {
			b.Fatal(err)
		}
		wire[i] = r
	}
	h := startBench(b, "sink.js", benchSinkJS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.handler(wire[i%len(wire)], "phone-0")
	}
	b.StopTimer()
	if h.err != nil {
		b.Fatal(h.err)
	}
}
