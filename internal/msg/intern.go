// Bounded string interning and boxed-float caching for the wire read path.
//
// Wire decoding is dominated by small heap objects: every map key is copied
// out of the frame buffer, and every numeric value boxes a fresh float64
// when it lands in an interface. Sensor payloads are wildly repetitive —
// the same handful of keys ("level", "voltage", "bssid", ...) and a small
// working set of numeric readings arrive millions of times — so both costs
// are cacheable. The interner keeps one canonical copy of each key seen on
// the wire (bounded, append-only, lock-free reads); the float cache keeps
// one boxed interface per recently seen bit pattern. Neither cache is ever
// invalidated: strings and boxed floats are immutable, so a stale entry is
// merely unused, never wrong.
package msg

import (
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// internCap bounds the interner so hostile wire input cannot grow it without
// limit. Past the cap, misses fall back to a plain copy — correctness is
// unaffected, only dedup stops.
const internCap = 8192

// internTable is a string set that readers search without a lock or an
// allocation: an open-addressing hash table of pointers to the canonical
// strings, only ever added to. An insert takes the mutex, searches again, and
// stores the new entry's pointer into an empty slot atomically, so a reader
// sees either nothing — and takes the insert path, which finds the entry — or
// the whole entry: a key is lock-free and allocation-free from the lookup
// after the one that added it. When half the slots are taken the writer
// builds a table twice the size and publishes it with one atomic store;
// readers still holding the old one find every entry it had. Each entry is
// copied O(1) times amortized, so filling the table — which a fleet's burst of
// fresh node names does at once — costs linear work.
type internTable struct {
	mu  sync.Mutex
	tab atomic.Pointer[internSlots]
	n   int // entries; guarded by mu
}

// internSlots is one published generation of an internTable. The seed keeps
// hostile keys from being chosen to collide.
type internSlots struct {
	seed  maphash.Seed
	slots []atomic.Pointer[string] // a power of two, at most half full
}

var interner internTable

// Intern returns a canonical string equal to string(b). The canonical copy
// is shared across all callers, so repeated wire keys cost zero allocations
// after first sight. Safe for concurrent use.
func Intern(b []byte) string { return interner.intern(b) }

// InternString is Intern for input already held as a string.
func InternString(s string) string {
	if tab := interner.tab.Load(); tab != nil {
		if hit, ok := find(tab, s, maphash.String(tab.seed, s)); ok {
			return hit
		}
	}
	return interner.miss(s)
}

func (t *internTable) intern(b []byte) string {
	if tab := t.tab.Load(); tab != nil {
		if hit, ok := find(tab, b, maphash.Bytes(tab.seed, b)); ok {
			return hit
		}
	}
	return t.miss(string(b))
}

// find looks key up in tab; h is its hash under tab.seed.
func find[K string | []byte](tab *internSlots, key K, h uint64) (string, bool) {
	mask := uint64(len(tab.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		p := tab.slots[i].Load()
		if p == nil {
			return "", false
		}
		if *p == string(key) {
			return *p, true
		}
	}
}

// miss adds s unless it is there already or the table is full, and returns
// the canonical string.
func (t *internTable) miss(s string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := t.tab.Load()
	if tab != nil {
		if hit, ok := find(tab, s, maphash.String(tab.seed, s)); ok {
			return hit
		}
	}
	if t.n >= internCap {
		return s
	}
	if tab == nil || 2*(t.n+1) > len(tab.slots) {
		tab = t.grow(tab)
	}
	tab.put(&s)
	t.n++
	return s
}

// grow publishes a table twice the size of old (or a first one) holding
// old's entries. Caller holds t.mu.
func (t *internTable) grow(old *internSlots) *internSlots {
	next := &internSlots{seed: maphash.MakeSeed(), slots: make([]atomic.Pointer[string], 64)}
	if old != nil {
		next.seed = old.seed
		next.slots = make([]atomic.Pointer[string], 2*len(old.slots))
		for i := range old.slots {
			if p := old.slots[i].Load(); p != nil {
				next.put(p)
			}
		}
	}
	t.tab.Store(next)
	return next
}

// put stores p in the first free slot of its probe sequence.
func (tab *internSlots) put(p *string) {
	mask := uint64(len(tab.slots) - 1)
	for i := maphash.String(tab.seed, *p) & mask; ; i = (i + 1) & mask {
		if tab.slots[i].Load() == nil {
			tab.slots[i].Store(p)
			return
		}
	}
}

// floatBoxes is a direct-mapped cache of boxed float64 interface values,
// indexed by a Fibonacci hash of the bit pattern. A hit returns the shared
// box with no allocation; a miss boxes once and overwrites the slot. Boxed
// floats are immutable, so sharing one box across goroutines and messages
// is safe.
var floatBoxes [4096]atomic.Value

// boxFloat returns f as an interface value, reusing a cached box when the
// same bit pattern was seen recently.
func boxFloat(f float64) Value {
	bits := math.Float64bits(f)
	idx := (bits * 0x9e3779b97f4a7c15) >> 52 // top 12 bits of a Fibonacci hash
	if v := floatBoxes[idx].Load(); v != nil {
		if g, ok := v.(float64); ok && math.Float64bits(g) == bits {
			return v
		}
	}
	var v Value = f // the one boxing allocation on a miss
	floatBoxes[idx].Store(v)
	return v
}

// stringBoxes is floatBoxes for short strings read out of encodings: the
// same few identifiers (BSSIDs, names, states) are read from message after
// message, and a hit hands back the one boxed copy. Longer strings are boxed
// as they are, sharing the encoding's bytes.
var stringBoxes [4096]atomic.Value

var stringBoxSeed = maphash.MakeSeed()

// stringBoxMax is the longest string stringBoxes keeps.
const stringBoxMax = 32

// boxString returns s, which shares a Raw's bytes, as an interface value:
// from stringBoxes when it is short, boxed as it is otherwise.
func boxString(s string) Value {
	if len(s) > stringBoxMax {
		return s
	}
	slot := &stringBoxes[maphash.String(stringBoxSeed, s)>>52]
	if v := slot.Load(); v != nil {
		if c, ok := v.(string); ok && c == s {
			return v
		}
	}
	var v Value = strings.Clone(s) // a copy, and its box
	slot.Store(v)
	return v
}
