package msg

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
	"testing"
)

// TestInternConcurrentShards drives the interner the way a multi-shard fleet
// does: many shard workers decoding envelopes at once, most keys shared
// (channel names, wire keys), some keys private per shard (entity names).
// Run under -race (make check does) this pins the lock-free read path /
// mutex-guarded miss path split. Correctness bar: every call returns a
// string equal to its input, concurrency notwithstanding.
func TestInternConcurrentShards(t *testing.T) {
	const shards = 8
	const rounds = 400
	shared := []string{"upload", "cmd", "level", "voltage", "bssid", "n"}
	var wg sync.WaitGroup
	errs := make(chan string, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, k := range shared {
					if got := InternString(k); got != k {
						errs <- fmt.Sprintf("shard %d: InternString(%q) = %q", s, k, got)
						return
					}
					if got := Intern([]byte(k)); got != k {
						errs <- fmt.Sprintf("shard %d: Intern(%q) = %q", s, k, got)
						return
					}
				}
				private := fmt.Sprintf("shard%d-key%d", s, i%50)
				if got := Intern([]byte(private)); got != private {
					errs <- fmt.Sprintf("shard %d: Intern(%q) = %q", s, private, got)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestInternSteadyStateZeroAlloc: from its second lookup on, a key is
// returned without a lock or an allocation — however many keys the table
// already holds. A table that parked new keys until enough of them had
// gathered left a few hot keys converting and locking on every lookup once
// the table was warm (here: 64 keys, then 4 new ones).
func TestInternSteadyStateZeroAlloc(t *testing.T) {
	for i := 0; i < 64; i++ {
		InternString(fmt.Sprintf("intern-warm-%d", i))
	}
	keys := make([][]byte, 4)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("intern-hot-%d", i))
		Intern(keys[i]) // first sight: the canonical copy is made here
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			Intern(k)
		}
	}); avg != 0 {
		t.Errorf("a round of lookups of 4 known keys allocates %.1f times, want 0", avg)
	}
	a, b := Intern(keys[0]), InternString(string(keys[0]))
	if a != string(keys[0]) || b != a {
		t.Errorf("Intern = %q, InternString = %q, want %q", a, b, keys[0])
	}
}

// TestInternBurstPublicationLinear: filling a fresh table with a burst of
// distinct keys (a fleet's worth of node names), each looked up again at once,
// must cost O(1) amortized allocations per key. Republishing the whole table
// for each new key costs O(n) per key — hundreds at this size — so the budget
// below fails loudly without being brittle.
func TestInternBurstPublicationLinear(t *testing.T) {
	const keys = 4096
	names := make([][]byte, keys)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("phone%05d", i))
	}
	var table *internTable
	avg := testing.AllocsPerRun(3, func() {
		table = &internTable{}
		for _, k := range names {
			if got := table.intern(k); got != string(k) {
				t.Fatalf("intern(%q) = %q", k, got)
			}
			table.intern(k)
		}
	})
	if perKey := avg / keys; perKey > 30 {
		t.Errorf("burst insert costs %.1f allocs/key (%.0f total for %d keys); growth should stay O(1) amortized",
			perKey, avg, keys)
	}
	// Every key is readable without the lock.
	tab := table.tab.Load()
	for _, k := range names {
		if _, ok := find(tab, k, maphash.Bytes(tab.seed, k)); !ok {
			t.Fatalf("%q missing from the published table", k)
		}
	}
}

// TestInternCapBounded: past internCap the table stops growing and misses
// degrade to identity — hostile or oversized key sets must not balloon the
// process.
func TestInternCapBounded(t *testing.T) {
	table := &internTable{}
	for i := 0; i < internCap+512; i++ {
		k := fmt.Sprintf("cap-key-%d", i)
		if got := table.miss(k); got != k {
			t.Fatalf("miss(%q) = %q", k, got)
		}
	}
	if table.n > internCap {
		t.Errorf("table grew to %d entries, cap is %d", table.n, internCap)
	}
	if n := len(table.tab.Load().slots); n > 4*internCap {
		t.Errorf("table has %d slots for at most %d entries", n, internCap)
	}
}

// TestStringBoxReuse: a short string read again from an encoding is the box
// the first read made — no copy, no box — while a long one is boxed as it
// is, sharing the encoding's bytes.
func TestStringBoxReuse(t *testing.T) {
	long := strings.Repeat("x", stringBoxMax+1)
	r := mustEncode(t, Map{"bssid": "02:1a:2b:3c:4d:5e", "long": long})
	first, _ := r.Field("bssid")
	if n := testing.AllocsPerRun(100, func() {
		if v, _ := r.Field("bssid"); v != first {
			t.Fatalf("read %v, want %v", v, first)
		}
	}); n != 0 {
		t.Errorf("repeated short-string read: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, _ := r.Field("long"); v != long {
			t.Fatalf("read %v", v)
		}
	}); n != 1 {
		t.Errorf("long-string read: %v allocs, want 1 (its box)", n)
	}
}
