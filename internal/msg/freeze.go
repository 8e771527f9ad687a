// Frozen messages: the copy-on-write discipline behind the broker's
// zero-copy fanout.
//
// The paper's delivery contract gives every subscriber its own private copy
// of a published message, which at deployment scale (a collector channel
// with ~1000 device proxies) turns one publish into a thousand deep clones.
// Freezing inverts the ownership: Freeze deep-copies the tree ONCE into an
// immutable "frozen" form, and the broker hands every subscriber the same
// frozen tree. A subscriber that wants to mutate calls Thaw (or
// pubsub.Event.MutableMessage) and pays for its own private clone — copies
// happen lazily, only where a writer actually exists, so fanout cost drops
// from O(subscribers × tree) to O(tree).
//
// Frozen-ness is recorded as a sentinel entry inside the root map under
// markerKey. The marker's value has an unexported type, so no decoder (JSON
// or binary — both produce only the six domain types) and no script can
// forge it: hostile wire input may contain the marker KEY, but then it is an
// ordinary entry that encodes, clones, and compares like any other. Every
// walker in this package (Clone, Equal, Normalize, the codecs) and the
// script-value converter skip marker entries, so freezing is invisible to
// message content — a frozen map encodes to exactly the bytes its unfrozen
// original would.
package msg

import "sort"

// markerKey holds the freeze marker. The key starts with NUL so it sorts
// before (and can never collide with) any key a well-behaved publisher uses.
const markerKey = "\x00frozen"

// frozenMark is the marker's value type. Unexported and carrying no state:
// only this package can create one, which is what makes IsFrozen sound.
type frozenMark struct{}

// IsFrozen reports whether m is a frozen (immutable, shareable) message
// root. Only roots returned by Freeze/FreezeOwned are frozen; nested maps
// inside a frozen tree are protected by the root's contract, not their own
// marker.
func IsFrozen(m Map) bool {
	_, ok := m[markerKey].(frozenMark)
	return ok
}

// Freeze returns an immutable snapshot of m that may be shared across
// goroutines without copying. When m is already frozen it is returned
// as-is (a "freeze hit": O(1), allocation-free). Otherwise the tree is
// deep-cloned once and the clone is marked; the caller's map is NOT
// mutated, so publishers stay free to reuse or modify their own maps after
// publishing.
//
// Pathological case: if m already carries an ordinary (non-marker) entry
// under the marker key, marking the clone would overwrite that entry. Freeze
// refuses to lose content — it returns the plain unfrozen clone instead.
// Callers that share messages must therefore check IsFrozen on the result
// (the broker falls back to per-subscriber clones), never assume it.
//
// The returned map must be treated as read-only. Mutate through Thaw.
// Freeze(nil) is nil.
func Freeze(m Map) Map {
	if m == nil {
		return nil
	}
	if IsFrozen(m) {
		return m
	}
	out := cloneMap(m, 1)
	if _, collides := out[markerKey]; collides {
		return out
	}
	out[markerKey] = frozenMark{}
	return out
}

// FreezeOwned marks m frozen IN PLACE, avoiding Freeze's defensive clone.
// The caller asserts it holds the only reference — typical for maps freshly
// decoded off the wire or just built by a script conversion. After the call
// the map is immutable: the caller must not write to it again.
// FreezeOwned(nil) is nil.
func FreezeOwned(m Map) Map {
	if m == nil {
		return nil
	}
	if _, collides := m[markerKey]; collides {
		return m // same content-preserving refusal as Freeze
	}
	m[markerKey] = frozenMark{}
	return m
}

// Thaw returns a privately owned, mutable version of m: a deep clone when m
// is frozen (the lazy copy of the copy-on-write discipline), m itself when
// it is already mutable. Thaw(nil) is nil.
func Thaw(m Map) Map {
	if m == nil || !IsFrozen(m) {
		return m
	}
	return cloneMap(m, 1)
}

// Len returns the number of message entries in m, excluding the freeze
// marker: the length Equal, the codecs, and subscribers observe.
func Len(m Map) int {
	n := len(m)
	if IsFrozen(m) {
		n--
	}
	return n
}

// Keys returns m's keys sorted lexicographically, excluding the freeze
// marker — the deterministic iteration order used by the codecs and the
// script-value converter.
func Keys(m Map) []string {
	return appendKeys(make([]string, 0, len(m)), m)
}

// appendKeys appends m's sorted keys (marker excluded) to dst, which must be
// empty: a caller with a stack buffer sorts a small map without allocating.
func appendKeys(dst []string, m Map) []string {
	for k, v := range m {
		if IsMarker(k, v) {
			continue
		}
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

// IsMarker reports whether a map entry is the freeze marker, which every
// walker of a message map — in this package or outside it — must skip.
func IsMarker(k string, v Value) bool {
	if k != markerKey {
		return false
	}
	_, ok := v.(frozenMark)
	return ok
}
