package script

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/script/scripts"
)

// BenchmarkScanHandler and BenchmarkSinkHandler time the two handlers of
// bench/'s scan_pipeline, scan.js on the phone and a json() logger on the
// collector, through the ops TestHandlerAllocationCeilings pins:
//
//	go test -run '^$' -bench 'Handler$' -count 10 ./internal/script

// benchHost keeps the handler a script subscribes and the last object it
// publishes, which it takes encoded as the core does, and drops the rest.
type benchHost struct {
	handler   func(m msg.Value, origin string)
	published msg.Raw
	err       error
}

func (h *benchHost) Publish(string, msg.Value) error { return nil }
func (h *benchHost) PublishRaw(_ string, r msg.Raw, _ bool) error {
	h.published = r
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

func startBench(tb testing.TB, name, src string) *benchHost {
	h := &benchHost{}
	s, err := New(name, src, h, Config{})
	if err == nil {
		err = s.Start()
	}
	if err != nil || h.handler == nil {
		tb.Fatalf("%s: err=%v, subscribed=%v", name, err, h.handler != nil)
	}
	return h
}

// benchScans returns n encoded 20-AP wifi-scan messages in the shape
// bench/'s scan_pipeline sends: BSSIDs from a seeded pool of 80, integer
// RSSI, a tenth of the access points after the first locally administered.
func benchScans(tb testing.TB, n int) []msg.Raw {
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
			tb.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// BenchmarkScanHandler: scan.js on one encoded 20-AP scan — read through a
// view, build the sanitised object, convert it for publish.
func BenchmarkScanHandler(b *testing.B) {
	op, h := scanHandler(b, benchScans(b, 64))
	benchOp(b, op)
	if h.err != nil || h.published.IsZero() {
		b.Fatalf("scan.js: err=%v, published=%v", h.err, h.published)
	}
}

// BenchmarkSinkHandler: the collector's logger on what scan.js published, as
// the wire delivers it — json() of an untouched view transcodes the bytes.
func BenchmarkSinkHandler(b *testing.B) {
	scan, h := scanHandler(b, benchScans(b, 64))
	wire := make([]msg.Raw, 64)
	for i := range wire {
		scan()
		wire[i] = h.published
	}
	op, hs := sinkHandler(b, wire)
	benchOp(b, op)
	if hs.err != nil {
		b.Fatal(hs.err)
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
}

// scanHandler starts scan.js on a benchHost and returns the op that
// TestHandlerAllocationCeilings pins and BenchmarkScanHandler times: the
// handler on the next of scans.
func scanHandler(tb testing.TB, scans []msg.Raw) (op func(), h *benchHost) {
	h = startBench(tb, "scan.js", scripts.MustSource("scan.js"))
	i := 0
	return func() {
		h.handler(scans[i%len(scans)], "")
		i++
	}, h
}

// sinkHandler starts the json() logger on a benchHost and returns the op that
// TestHandlerAllocationCeilings pins and BenchmarkSinkHandler times: the
// handler on the next of wire, from phone-0.
func sinkHandler(tb testing.TB, wire []msg.Raw) (op func(), h *benchHost) {
	h = startBench(tb, "sink.js", benchSinkJS)
	i := 0
	return func() {
		h.handler(wire[i%len(wire)], "phone-0")
		i++
	}, h
}

// BenchmarkClusteringHandler and BenchmarkRunningSum time handlers whose
// numbers mostly miss msg's cache of boxed numbers, where scan.js's mostly
// hit. clustering.js measures each sample against a window of sixty with
// cosine distances, fractions most of which it has not made before; the
// running sums make three new ones at every step. Each runs one script per
// goroutine, so -cpu 1 times one script and -cpu 2 two that share the cache.
func BenchmarkClusteringHandler(b *testing.B) {
	scan := startBench(b, "scan.js", scripts.MustSource("scan.js"))
	var samples []msg.Raw
	for _, m := range benchScans(b, 64) {
		scan.handler(m, "")
		r, err := msg.Encode(scan.published)
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, r)
	}
	benchParallel(b, func(k int) func() {
		h := startBench(b, "clustering.js", scripts.MustSource("clustering.js"))
		i := 17 * k
		return func() {
			h.handler(samples[i%len(samples)], "")
			i++
		}
	})
}

func BenchmarkRunningSum(b *testing.B) {
	const src = `var acc = 0.5, sq = 0;
subscribe('ch', function (m) {
  for (var i = 0; i < 100; i++) { acc = acc + m.v / 7; sq = sq + acc * acc; }
});`
	benchParallel(b, func(k int) func() {
		h := startBench(b, "sum.js", src)
		m, err := msg.Encode(msg.Map{"v": float64(3 + k)})
		if err != nil {
			b.Fatal(err)
		}
		return func() { h.handler(m, "") }
	})
}

// benchParallel runs the steps start makes, one per goroutine of
// b.RunParallel; the kth goroutine's starts at its own place, so that no two
// make the same numbers.
func benchParallel(b *testing.B, start func(k int) func()) {
	steps := make([]func(), runtime.GOMAXPROCS(0))
	for k := range steps {
		steps[k] = start(k)
	}
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		step := steps[next.Add(1)-1]
		for pb.Next() {
			step()
		}
	})
}
