package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pogo/internal/obs"
	"pogo/internal/vclock"
)

// pingPong builds a small workload directly on the engine — N ports in a
// ring, each sending M numbered pings to its successor, every ping answered
// with a pong — runs it, and returns the merged delivery log. The log is
// sorted by content (time, receiver, sender, payload), never by shard or
// goroutine, so identical runs must produce identical logs.
func pingPong(shards, ports, pings int) []string {
	e := NewEngine(Config{Shards: shards, Lookahead: 50 * time.Millisecond})
	logs := make([][]string, len(e.shards))
	for i := 0; i < ports; i++ {
		sh := e.Shard(i % len(e.shards))
		p := sh.Port(fmt.Sprintf("port%03d", i))
		next := fmt.Sprintf("port%03d", (i+1)%ports)
		shardIdx := sh.id
		me := p
		p.OnReceive(func(from string, payload []byte) {
			logs[shardIdx] = append(logs[shardIdx], fmt.Sprintf("%d %s <- %s %s",
				sh.Clock().Now().UnixNano(), me.LocalID(), from, payload))
			if strings.HasPrefix(string(payload), "ping") {
				me.Send(from, []byte("pong"+strings.TrimPrefix(string(payload), "ping")))
			}
		})
		for j := 0; j < pings; j++ {
			j := j
			sh.Clock().AfterFunc(time.Duration(j+1)*100*time.Millisecond, func() {
				me.Send(next, []byte(fmt.Sprintf("ping%03d", j)))
			})
		}
	}
	e.Run(time.Duration(pings+10)*100*time.Millisecond, nil)
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Strings(all)
	return all
}

func logHash(log []string) string {
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestDeterministicAcrossShardsAndProcs is the engine's core guarantee: the
// same workload yields byte-identical delivery logs whatever the shard count
// and whatever GOMAXPROCS — i.e. real parallelism does not perturb the
// simulation. Run under -race by make check.
func TestDeterministicAcrossShardsAndProcs(t *testing.T) {
	const ports, pings = 24, 8
	ref := pingPong(1, ports, pings)
	if len(ref) != 2*ports*pings {
		t.Fatalf("reference log has %d entries, want %d", len(ref), 2*ports*pings)
	}
	want := logHash(ref)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 3, 4, 8} {
			if got := logHash(pingPong(shards, ports, pings)); got != want {
				t.Errorf("shards=%d GOMAXPROCS=%d: log hash %s, want %s", shards, procs, got, want)
			}
		}
	}
}

// TestFabricLatencyAndOrdering checks the fabric contract: a payload sent at
// t arrives at exactly t+Lookahead, and same-instant deliveries to one
// receiver arrive in (sender, sender-seq) order.
func TestFabricLatencyAndOrdering(t *testing.T) {
	e := NewEngine(Config{Shards: 2, Lookahead: 100 * time.Millisecond})
	a := e.Shard(0).Port("a")
	b := e.Shard(1).Port("b")
	z := e.Shard(0).Port("z")
	var got []string
	var at []time.Time
	b.OnReceive(func(from string, payload []byte) {
		got = append(got, from+":"+string(payload))
		at = append(at, e.Shard(1).Clock().Now())
	})
	// Same send instant from two senders, plus two in-order sends from one.
	start := e.Shard(0).Clock().Now()
	e.Shard(0).Clock().AfterFunc(time.Second, func() {
		z.Send("b", []byte("3"))
		a.Send("b", []byte("1"))
		a.Send("b", []byte("2"))
	})
	e.Run(2*time.Second, nil)
	want := []string{"a:1", "a:2", "z:3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivery order = %v, want %v", got, want)
	}
	wantAt := start.Add(time.Second + 100*time.Millisecond)
	for i, ts := range at {
		if !ts.Equal(wantAt) {
			t.Errorf("delivery %d at %v, want send+lookahead %v", i, ts, wantAt)
		}
	}
}

// TestEngineObsAndStats checks the engine's instrumentation: epochs, fabric
// and cross-shard counters, unknown-destination drops.
func TestEngineObsAndStats(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(Config{Shards: 2, Lookahead: 100 * time.Millisecond, Obs: reg})
	a := e.Shard(0).Port("a")
	b := e.Shard(1).Port("b")
	delivered := 0
	b.OnReceive(func(string, []byte) { delivered++ })
	a.OnReceive(func(string, []byte) { delivered++ })
	e.Shard(0).Clock().AfterFunc(50*time.Millisecond, func() {
		a.Send("b", []byte("x"))       // cross-shard
		a.Send("nowhere", []byte("y")) // dropped
	})
	e.Shard(1).Clock().AfterFunc(150*time.Millisecond, func() {
		b.Send("a", []byte("z")) // cross-shard back
	})
	stats := e.Run(time.Second, nil)
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
	if stats.Fabric != 2 || stats.CrossShard != 2 || stats.Dropped != 1 {
		t.Errorf("stats = %+v, want Fabric=2 CrossShard=2 Dropped=1", stats)
	}
	if stats.Epochs != 10 || reg.CounterValue("fleet_epochs_total") != 10 {
		t.Errorf("epochs = %d (counter %d), want 10", stats.Epochs, reg.CounterValue("fleet_epochs_total"))
	}
	if got := reg.CounterValue("fleet_cross_shard_messages_total"); got != 2 {
		t.Errorf("fleet_cross_shard_messages_total = %d, want 2", got)
	}
	if got := reg.CounterValue("fleet_dropped_total"); got != 1 {
		t.Errorf("fleet_dropped_total = %d, want 1", got)
	}
	if stats.Events == 0 || reg.CounterValue("fleet_shard_events_total", obs.L("shard", "0")) == 0 {
		t.Error("per-shard event accounting empty")
	}
}

// TestBarrierDoneCallback checks that the barrier callback can stop the run
// and safely inspect shard state.
func TestBarrierDoneCallback(t *testing.T) {
	e := NewEngine(Config{Shards: 3, Lookahead: 100 * time.Millisecond})
	fired := 0
	e.Shard(2).Clock().AfterFunc(250*time.Millisecond, func() { fired++ })
	barriers := 0
	stats := e.Run(time.Hour, func(now time.Time) bool {
		barriers++
		return fired > 0 // reads shard 2's state: workers are parked here
	})
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if barriers != 3 || stats.Epochs != 3 {
		t.Errorf("stopped after %d barriers (%d epochs), want 3", barriers, stats.Epochs)
	}
	if got := e.Shard(2).Clock().Now(); !got.Equal(vclock.SimEpoch.Add(300 * time.Millisecond)) {
		t.Errorf("shard clock at %v, want start+300ms", got)
	}
}
