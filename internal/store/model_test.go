package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pogo/internal/vclock"
)

// refBox is the outbox as it used to be built — a map, sorted on every read
// — plus a model of the log: which segment files exist, and in each the
// records it holds with the offset each ends at. The model applies the
// documented rules itself (seal past segmentSize, unlink only the oldest
// segment and only when nothing in it is live, relocate stragglers when a
// second sealed segment waits behind one that is at least three quarters
// dead) and sizes every record from the documented layout, so the files on
// disk can be checked name by name and byte count by byte count.
type refBox struct {
	entries map[uint64]Entry
	nextID  uint64

	segs    []*refSeg          // oldest first; the last is the active one
	home    map[uint64]*refSeg // live ID → the segment holding its current add
	nextSeg uint64
	// How often each rule fired, so a test can tell it exercised them.
	seals, drops, relocations int
}

type refSeg struct {
	n    uint64 // 0: the active segment
	size int64
	adds int
	live int
	recs []refRec
}

// refRec is one record of the modelled log.
type refRec struct {
	end  int64 // offset just past it in its segment file
	typ  byte
	e    Entry       // add
	runs [][2]uint64 // del
	next uint64      // header
}

func newRefBox() *refBox {
	return &refBox{
		entries: map[uint64]Entry{}, nextID: 1,
		segs: []*refSeg{{}}, home: map[uint64]*refSeg{}, nextSeg: 1,
	}
}

func uvarintLen(x uint64) int64 { return int64(len(binary.AppendUvarint(nil, x))) }

func (r *refBox) active() *refSeg { return r.segs[len(r.segs)-1] }

// logRecord appends one record of the given body length to the active
// segment, preceded by the segment's header if it is still empty.
func (r *refBox) logRecord(rec refRec, body int64) {
	act := r.active()
	if act.size == 0 {
		r.logHeader(act)
	}
	act.size += 9 + body
	rec.end = act.size
	act.recs = append(act.recs, rec)
}

func (r *refBox) logHeader(seg *refSeg) {
	seg.size = 8 + 9 + uvarintLen(r.nextID)
	seg.recs = append(seg.recs, refRec{end: seg.size, typ: recHeader, next: r.nextID})
}

func (r *refBox) logAdd(e Entry) {
	body := uvarintLen(e.ID) + uvarintLen(e.Seq) + int64(len(binary.AppendVarint(nil, e.EnqueuedAt))) +
		uvarintLen(uint64(len(e.To))) + int64(len(e.To)) +
		uvarintLen(uint64(len(e.Channel))) + int64(len(e.Channel)) + int64(len(e.Payload))
	r.logRecord(refRec{typ: recAdd, e: e}, body)
	act := r.active()
	act.adds++
	act.live++
	r.home[e.ID] = act
}

func (r *refBox) add(e Entry) {
	r.logAdd(e)
	r.entries[e.ID] = e
	r.nextID = e.ID + 1
	r.maintain()
}

// del deletes the IDs, which must be live and distinct, as one del record.
func (r *refBox) del(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	var runs [][2]uint64
	for _, id := range ids {
		if n := len(runs); n > 0 && id == runs[n-1][0]+runs[n-1][1] {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]uint64{id, 1})
		}
		delete(r.entries, id)
		r.home[id].live--
		delete(r.home, id)
	}
	var body int64
	for _, run := range runs {
		body += uvarintLen(run[0]) + uvarintLen(run[1])
	}
	r.logRecord(refRec{typ: recDel, runs: runs}, body)
	r.maintain()
}

// maintain models what follows every write.
func (r *refBox) maintain() {
	for {
		old, act := r.segs[0], r.active()
		switch {
		case act.size >= segmentSize:
			act.n = r.nextSeg
			r.nextSeg++
			fresh := &refSeg{}
			r.logHeader(fresh)
			r.segs = append(r.segs, fresh)
			r.seals++
		case old != act && old.live == 0:
			r.segs = r.segs[1:]
			r.drops++
		case len(r.segs) > 2 && old.live*4 <= old.adds:
			for _, e := range r.after(0) {
				if r.home[e.ID] == old {
					old.live--
					r.logAdd(e)
				}
			}
			r.relocations++
		default:
			return
		}
	}
}

// reopen models a restart. Everything a replay recovers is what the model
// already holds — the next ID too, drained log or not — except that sealed
// segments are numbered on from the ones still on disk.
func (r *refBox) reopen() {
	r.nextSeg = 1
	if n := len(r.segs); n > 1 {
		r.nextSeg = r.segs[n-2].n + 1
	}
}

// files returns the segment files the model expects, name → size.
func (r *refBox) files(path string) map[string]int64 {
	out := map[string]int64{}
	for _, seg := range r.segs {
		name := path
		if seg.n != 0 {
			name = fmt.Sprintf("%s.%d", path, seg.n)
		}
		out[name] = seg.size
	}
	return out
}

// replayWithout folds the modelled records, oldest segment first, into the
// state a replay must reach — the live entries and the next ID — leaving out
// the records skip names.
func (r *refBox) replayWithout(skip func(seg *refSeg, rec *refRec) bool) (map[uint64]Entry, uint64) {
	entries, next := map[uint64]Entry{}, uint64(1)
	for _, seg := range r.segs {
		for i := range seg.recs {
			rec := &seg.recs[i]
			if skip(seg, rec) {
				continue
			}
			switch rec.typ {
			case recHeader:
				next = max(next, rec.next)
			case recAdd:
				entries[rec.e.ID] = rec.e
				next = max(next, rec.e.ID+1)
			case recDel:
				for _, run := range rec.runs {
					for id := run[0]; id < run[0]+run[1]; id++ {
						delete(entries, id)
					}
				}
			}
		}
	}
	return entries, next
}

func (r *refBox) after(x uint64) []Entry {
	var out []Entry
	for id, e := range r.entries {
		if id > x {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// floors returns channel → Seq of the lowest-ID entry buffered for `to`.
func (r *refBox) floors(to string) map[string]uint64 {
	out := map[string]uint64{}
	for _, e := range r.after(0) {
		if _, ok := out[e.Channel]; e.To == to && !ok {
			out[e.Channel] = e.Seq
		}
	}
	return out
}

// checkInvariants verifies the outbox's private bookkeeping against a
// recount of its slots.
func checkInvariants(t *testing.T, o *Outbox) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	live := 0
	segLive := map[*segment]int{}
	type pair struct{ to, ch string }
	type tally struct {
		count          int
		headID, lowSeq uint64
	}
	recount := map[pair]*tally{}
	for i, s := range o.slots {
		if i < o.head {
			if !reflect.DeepEqual(s, slot{}) {
				t.Fatalf("slot %d before head %d not zeroed", i, o.head)
			}
			continue
		}
		if i > o.head && s.ID <= o.slots[i-1].ID {
			t.Fatalf("slots out of ID order at %d", i)
		}
		if s.dead {
			if s.Payload != nil {
				t.Fatalf("dead slot %d still holds its payload", i)
			}
			continue
		}
		live++
		segLive[s.seg]++
		if (s.seg == nil) != (o.file == nil) || (s.seg != nil && !slices.Contains(o.segs, s.seg)) {
			t.Fatalf("entry %d points at a segment the outbox does not hold", s.ID)
		}
		if s.EnqueuedAt < o.oldest {
			t.Fatalf("entry %d enqueued at %d, below the tracked bound %d", s.ID, s.EnqueuedAt, o.oldest)
		}
		k := pair{s.To, s.Channel}
		if recount[k] == nil {
			recount[k] = &tally{headID: s.ID, lowSeq: s.Seq}
		}
		recount[k].count++
		if s.cl == nil || s.cl.channel != s.Channel {
			t.Fatalf("entry %d points at the wrong channel record", s.ID)
		}
	}
	if o.head < len(o.slots) && o.slots[o.head].dead {
		t.Fatalf("dead slot left at the head")
	}
	if live != o.live {
		t.Fatalf("live = %d, recount %d", o.live, live)
	}
	for i, seg := range o.segs {
		if seg.live != segLive[seg] || seg.live > seg.adds {
			t.Fatalf("segment %d of %d: live = %d of %d adds, recount %d", i, len(o.segs), seg.live, seg.adds, segLive[seg])
		}
		if sealed := i < len(o.segs)-1; sealed && (seg.n == 0 || (i > 0 && seg.n <= o.segs[i-1].n)) {
			t.Fatalf("sealed segments out of order at %d", i)
		}
	}
	if wasted := len(o.slots) - o.live; wasted >= 32 && wasted > o.live {
		t.Fatalf("%d wasted positions for %d live entries: squeeze overdue", wasted, o.live)
	}
	for to, list := range o.chans {
		for _, cl := range list {
			want := recount[pair{to, cl.channel}]
			if want == nil {
				want = &tally{}
			}
			if cl.count != want.count {
				t.Fatalf("%s/%s count = %d, recount %d", to, cl.channel, cl.count, want.count)
			}
			if cl.count > 0 && (cl.headID != want.headID || cl.lowSeq != want.lowSeq) {
				t.Fatalf("%s/%s head = (%d, seq %d), recount (%d, seq %d)",
					to, cl.channel, cl.headID, cl.lowSeq, want.headID, want.lowSeq)
			}
			delete(recount, pair{to, cl.channel})
		}
	}
	if len(recount) != 0 {
		t.Fatalf("channels with live entries and no record: %v", recount)
	}
}

// diskFiles returns name → size of everything in the outbox's directory.
func diskFiles(t *testing.T, path string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Join(filepath.Dir(path), ent.Name())] = fi.Size()
	}
	return out
}

// shrinkSegments makes segments small for one test, so that a few hundred
// records exercise sealing, dropping and relocation.
func shrinkSegments(t *testing.T, size int64) {
	old := segmentSize
	segmentSize = size
	t.Cleanup(func() { segmentSize = old })
}

// modelOps drives an outbox and its model through steps seeded operations —
// Add bursts, in-order, total and scattered Acks, PurgeExpired — calling
// check after each and reopen instead of an operation now and then.
type modelOps struct {
	rng  *rand.Rand
	o    *Outbox
	ref  *refBox
	seqs map[string]uint64
	now  time.Time
}

var (
	modelDests = []string{"col", "peer-a", "peer-b"}
	modelChans = []string{"battery", "clusters", "wifi", "log"}
)

func newModelOps(seed int64, o *Outbox) *modelOps {
	return &modelOps{rng: rand.New(rand.NewSource(seed)), o: o, ref: newRefBox(), seqs: map[string]uint64{}, now: vclock.SimEpoch}
}

// step performs one random operation on both and returns its name. r picks
// the operation: below 50 an add burst, below 85 an ack, else a purge.
func (m *modelOps) step(t *testing.T, step, r int) string {
	t.Helper()
	rng, o, ref := m.rng, m.o, m.ref
	switch {
	case r < 50:
		// Bursts, so the backlog is sometimes hundreds deep.
		for n := 1 + rng.Intn(8)*rng.Intn(4); n > 0; n-- {
			to, ch := modelDests[rng.Intn(len(modelDests))], modelChans[rng.Intn(len(modelChans))]
			// The clock mostly moves forward; now and then it steps back.
			m.now = m.now.Add(time.Duration(rng.Intn(40)-4) * time.Minute)
			key := to + "\x00" + ch
			var payload []byte
			if rng.Intn(16) > 0 { // now and then an empty one
				payload = []byte(fmt.Sprintf("p%d", step))
			}
			id, err := o.Add(to, ch, m.seqs[key], payload, m.now)
			if err != nil {
				t.Fatal(err)
			}
			if id != ref.nextID {
				t.Fatalf("step %d: Add returned ID %d, reference expects %d", step, id, ref.nextID)
			}
			ref.add(Entry{ID: id, To: to, Channel: ch, Seq: m.seqs[key], Payload: payload, EnqueuedAt: m.now.UnixMilli()})
			m.seqs[key]++
		}
		return "add"
	case r < 85:
		live := ref.after(0)
		var ids []uint64
		switch mode := rng.Intn(4); {
		case len(live) == 0:
		case mode == 0: // the oldest few, in order: the common case
			for _, e := range live[:1+rng.Intn(len(live))] {
				ids = append(ids, e.ID)
			}
		case mode == 1: // everything
			for _, e := range live {
				ids = append(ids, e.ID)
			}
		default: // a scattered subset, shuffled, one ID twice
			for _, e := range live {
				if rng.Intn(3) == 0 {
					ids = append(ids, e.ID)
				}
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			if len(ids) > 0 {
				ids = append(ids, ids[0])
			}
		}
		ids = append(ids, ref.nextID+uint64(rng.Intn(3))) // never assigned
		if err := o.Ack(ids...); err != nil {
			t.Fatal(err)
		}
		var hit []uint64
		for _, id := range ids {
			if _, ok := ref.entries[id]; ok && !slices.Contains(hit, id) {
				hit = append(hit, id)
			}
		}
		ref.del(hit)
		return "ack"
	default:
		maxAge := time.Duration(1+rng.Intn(12)) * time.Hour
		dropped, err := o.PurgeExpired(m.now, maxAge)
		if err != nil {
			t.Fatal(err)
		}
		var want []Entry
		var ids []uint64
		for _, e := range ref.after(0) {
			if e.EnqueuedAt < m.now.Add(-maxAge).UnixMilli() {
				want = append(want, e)
				ids = append(ids, e.ID)
			}
		}
		ref.del(ids)
		if len(dropped) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dropped, want)) {
			t.Fatalf("step %d: PurgeExpired dropped\n got %v\nwant %v", step, dropped, want)
		}
		return "purge"
	}
}

// TestModelRandomOps drives an outbox and the map-plus-sort reference with
// the same seeded sequence of Add / Ack / PurgeExpired / Close+Open and
// requires every observable to agree after every step: order, length,
// cursor reads, by-ID reads, per-channel floors, the next ID (also after a
// replay of a drained log), the purge's dropped list, and — before Close has
// had a chance to do anything — the segment files on disk, by name and size:
// what was sealed, what was dropped and in which order, what was relocated.
func TestModelRandomOps(t *testing.T) {
	shrinkSegments(t, 600)
	seals, drops, relocations := 0, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		path := filepath.Join(t.TempDir(), "outbox.log")
		o, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		m := newModelOps(seed, o)
		rng, ref := m.rng, m.ref
		var scratch []Entry

		compare := func(step int, op string) {
			t.Helper()
			o := m.o
			want := ref.after(0)
			scratch = o.PendingInto(scratch)
			if len(want) == 0 && len(scratch) == 0 {
				// reflect.DeepEqual tells nil from empty; the outbox need not.
			} else if !reflect.DeepEqual(scratch, want) {
				t.Fatalf("seed %d step %d (%s): PendingInto\n got %v\nwant %v", seed, step, op, scratch, want)
			}
			if o.Len() != len(want) {
				t.Fatalf("seed %d step %d (%s): Len = %d, want %d", seed, step, op, o.Len(), len(want))
			}
			cursors := []uint64{0, ref.nextID, ref.nextID + 5, ^uint64(0)}
			for i := 0; i < 3 && ref.nextID > 1; i++ {
				cursors = append(cursors, uint64(rng.Int63n(int64(ref.nextID))))
			}
			for _, x := range cursors {
				got, want := o.AppendAfter(nil, x), ref.after(x)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d step %d (%s): AppendAfter(%d)\n got %v\nwant %v", seed, step, op, x, got, want)
				}
				e, ok := o.Get(x)
				if w, wok := ref.entries[x]; ok != wok || !reflect.DeepEqual(e, w) {
					t.Fatalf("seed %d step %d (%s): Get(%d) = %v, %v; want %v, %v", seed, step, op, x, e, ok, w, wok)
				}
			}
			for _, to := range append(modelDests, "nobody") {
				ch, sq := o.AppendFloors(to, nil, nil)
				got := map[string]uint64{}
				for i := range ch {
					got[ch[i]] = sq[i]
				}
				if want := ref.floors(to); len(ch) != len(got) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s): floors(%s) = %v %v, want %v", seed, step, op, to, ch, sq, want)
				}
			}
			checkInvariants(t, o)
			// Every record is with the OS when its call returns, so the files
			// are what the model says at every step, not just at Close.
			if got, want := diskFiles(t, path), ref.files(path); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): files on disk\n got %v\nwant %v", seed, step, op, got, want)
			}
			for i, seg := range o.segs {
				if w := ref.segs[i]; seg.adds != w.adds || seg.live != w.live || seg.size != w.size {
					t.Fatalf("seed %d step %d (%s): segment %d = %+v, model %+v", seed, step, op, i, *seg, *w)
				}
			}
		}

		for step := 0; step < 1200; step++ {
			op := "reopen"
			if r := rng.Intn(100); r < 93 {
				op = m.step(t, step, r)
			} else {
				if err := m.o.Close(); err != nil {
					t.Fatal(err)
				}
				if m.o, err = Open(path); err != nil {
					t.Fatal(err)
				}
				ref.reopen()
				if m.o.nextID != ref.nextID {
					t.Fatalf("seed %d step %d: next ID %d after reopen, want %d", seed, step, m.o.nextID, ref.nextID)
				}
			}
			compare(step, op)
		}
		m.o.Close()
		seals, drops, relocations = seals+ref.seals, drops+ref.drops, relocations+ref.relocations
	}
	// The point of the small segments: the rules ran often, not once.
	if seals < 1000 || drops < 1000 || relocations < 100 {
		t.Errorf("%d seals, %d drops, %d relocations: too few to call the segment rules exercised", seals, drops, relocations)
	}
}

// modelLog runs seeded operations under small segments until the log is
// several segments long with entries live in more than one of them, and
// returns the files' bytes with the model that says what they hold.
func modelLog(t *testing.T, seed int64) (files map[string][]byte, ref *refBox) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "outbox.log")
	o, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	m := newModelOps(seed, o)
	for step := 0; ; step++ {
		if step == 5000 {
			t.Fatalf("seed %d: no multi-segment log in %d steps", seed, step)
		}
		m.step(t, step, m.rng.Intn(93))
		held := map[*refSeg]bool{}
		for _, seg := range m.ref.home {
			held[seg] = true
		}
		if step > 200 && len(m.ref.segs) >= 3 && len(held) >= 2 && len(m.ref.active().recs) > 3 && m.ref.relocations > 0 {
			break
		}
	}
	if got, want := diskFiles(t, path), m.ref.files(path); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: files on disk %v, model says %v", seed, got, want)
	}
	return readFiles(t, path), m.ref
}

// readFiles returns base name → content of everything in the outbox's
// directory.
func readFiles(t *testing.T, path string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for name := range diskFiles(t, path) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = data
	}
	return files
}

// openDamaged lays files out in a fresh directory, with one of them (if
// named) replaced by damaged, and opens the outbox there.
func openDamaged(t *testing.T, dir string, files map[string][]byte, name string, damaged []byte) (*Outbox, error) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for n, data := range files {
		if n == name {
			data = damaged
		}
		if err := os.WriteFile(filepath.Join(dir, n), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return Open(filepath.Join(dir, "outbox.log"))
}

// requireState fails unless the outbox holds exactly the entries given, in
// ID order, with consistent bookkeeping, and will assign next next.
func requireState(t *testing.T, what string, o *Outbox, entries map[uint64]Entry, next uint64) {
	t.Helper()
	checkInvariants(t, o)
	got := o.Pending()
	if len(got) != len(entries) {
		t.Fatalf("%s: recovered %d entries, want %d\n got %v\nwant %v", what, len(got), len(entries), got, entries)
	}
	for _, e := range got {
		if w, ok := entries[e.ID]; !ok || !reflect.DeepEqual(e, w) {
			t.Fatalf("%s: recovered %v; want %v (added: %v)", what, e, w, ok)
		}
	}
	if o.nextID != next {
		t.Fatalf("%s: next ID %d, want %d", what, o.nextID, next)
	}
}

// TestCrashAtEveryOffset cuts the active segment of a multi-segment log at
// every byte offset — a process death part-way through any write it ever
// received — and requires the reopened outbox to hold exactly what the
// records that are still whole say, to cut the torn tail off, and to keep
// what is then added to it across one more restart.
func TestCrashAtEveryOffset(t *testing.T) {
	shrinkSegments(t, 600)
	for seed := int64(1); seed <= 3; seed++ {
		files, ref := modelLog(t, seed)
		act := ref.active()
		dir := filepath.Join(t.TempDir(), "cut")
		for cut := int64(0); cut <= act.size; cut++ {
			what := fmt.Sprintf("seed %d, active segment cut at %d of %d", seed, cut, act.size)
			o, err := openDamaged(t, dir, files, "outbox.log", files["outbox.log"][:cut])
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			entries, next := ref.replayWithout(func(seg *refSeg, rec *refRec) bool { return seg == act && rec.end > cut })
			requireState(t, what, o, entries, next)
			whole := int64(0)
			for _, rec := range act.recs {
				if rec.end <= cut {
					whole = rec.end
				}
			}
			if got := diskFiles(t, o.path)[o.path]; got != whole {
				t.Fatalf("%s: active segment is %d bytes after Open, want the %d of its whole records", what, got, whole)
			}
			id, err := o.Add("col", "after", 0, []byte("after the crash"), vclock.SimEpoch)
			if err != nil || id != next {
				t.Fatalf("%s: Add = %d, %v; want ID %d", what, id, err, next)
			}
			entries[id], _ = o.Get(id)
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			if o, err = Open(o.path); err != nil {
				t.Fatalf("%s: second Open: %v", what, err)
			}
			requireState(t, what+", second restart", o, entries, next+1)
			o.Close()
		}
	}
}

// TestFlipEveryByte damages one byte of a multi-segment log, at every offset
// of every segment in turn. A byte of a record costs exactly that record:
// the reopened outbox is in the state the other records describe (a lost del
// resurrects its entries, a lost add loses its entry, nothing else moves). A
// byte of a segment's magic makes Open refuse, with the files untouched.
func TestFlipEveryByte(t *testing.T) {
	shrinkSegments(t, 600)
	files, ref := modelLog(t, 4)
	dir := filepath.Join(t.TempDir(), "flip")
	for _, seg := range ref.segs {
		name := "outbox.log"
		if seg.n != 0 {
			name = fmt.Sprintf("outbox.log.%d", seg.n)
		}
		// Two damages per byte: the low bit turns one record type into
		// another, the high bit turns a small length into a huge one.
		for i := int64(0); i < 2*seg.size; i++ {
			off, mask := i/2, byte(0x01)<<(7*(i%2))
			what := fmt.Sprintf("%s byte %d of %d xor %#02x", name, off, seg.size, mask)
			damaged := slices.Clone(files[name])
			damaged[off] ^= mask
			o, err := openDamaged(t, dir, files, name, damaged)
			if off < int64(len(segmentMagic)) {
				if err == nil || !strings.Contains(err.Error(), name) {
					t.Fatalf("%s: Open = %v, want an error naming the file", what, err)
				}
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, damaged) {
					t.Fatalf("%s: the refused file was modified (%v)", what, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			var hit *refRec
			for i := range seg.recs {
				if hit == nil && off < seg.recs[i].end {
					hit = &seg.recs[i]
				}
			}
			entries, next := ref.replayWithout(func(_ *refSeg, rec *refRec) bool { return rec == hit })
			requireState(t, what, o, entries, next)
			o.Close()
		}
	}
}

// TestReplayUnorderedLog: a log no outbox of this package would write — IDs
// going backwards, an ID added twice, a deletion for an ID never added, a
// deleted ID added again, a run reaching over IDs that were never there —
// replays to what replaying it into a map would give, in ID order.
func TestReplayUnorderedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.log")
	add := func(b []byte, id uint64, to, ch string, seq uint64, payload string, at int64) []byte {
		return appendAdd(b, &Entry{ID: id, To: to, Channel: ch, Seq: seq, Payload: []byte(payload), EnqueuedAt: at})
	}
	del := func(b []byte, runs ...uint64) []byte {
		b, at := beginRecord(b, recDel)
		for _, v := range runs {
			b = binary.AppendUvarint(b, v)
		}
		endRecord(b, at)
		return b
	}
	b := (&Outbox{nextID: 2}).appendHeader(nil)
	b = add(b, 10, "c", "a", 4, "x", 5)
	b = add(b, 3, "c", "a", 1, "x", 9)
	b = add(b, 7, "c", "b", 0, "x", 2)
	b = del(b, 99, 1)
	b = add(b, 7, "c", "b", 8, "y", 3)
	b = del(b, 8, 3) // 8, 9 (never added) and 10
	b = add(b, 1, "d", "a", 0, "x", 7)
	b = del(b, 3, 1, 40, 2)
	b = add(b, 3, "c", "a", 2, "z", 4)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	checkInvariants(t, o)
	want := []Entry{
		{ID: 1, To: "d", Channel: "a", Seq: 0, Payload: []byte("x"), EnqueuedAt: 7},
		{ID: 3, To: "c", Channel: "a", Seq: 2, Payload: []byte("z"), EnqueuedAt: 4},
		{ID: 7, To: "c", Channel: "b", Seq: 8, Payload: []byte("y"), EnqueuedAt: 3},
	}
	if got := o.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed\n got %v\nwant %v", got, want)
	}
	if id, _ := o.Add("c", "a", 3, nil, vclock.SimEpoch); id != 11 {
		t.Errorf("next ID = %d, want 11 (one past the highest ID ever added)", id)
	}
	if ch, sq := o.AppendFloors("c", nil, nil); len(ch) != 2 {
		t.Errorf("floors(c) = %v %v", ch, sq)
	}
}

// writeCounter counts the writes that reach the log file.
type writeCounter struct {
	f      *os.File
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.f.Write(p)
}

// TestAckBatchIsOneWrite: an ack set is one record in one write to the log
// however many IDs it names — an in-order set is a single (first, count)
// pair — and it is with the OS when Ack returns; so is a purge.
func TestAckBatchIsOneWrite(t *testing.T) {
	o, path := openTemp(t)
	defer o.Close()
	var ids []uint64
	for i := 0; i < 40; i++ {
		id, _ := o.Add("c", "ch", uint64(i), []byte("p"), vclock.SimEpoch)
		ids = append(ids, id)
	}
	wc := &writeCounter{f: o.file}
	o.w = wc
	size := fileSize(t, path)
	if err := o.Ack(ids[:20]...); err != nil {
		t.Fatal(err)
	}
	if wc.writes != 1 {
		t.Errorf("Ack of 20 IDs issued %d writes, want 1", wc.writes)
	}
	// Header, type, and the pair (1, 20) in a byte each.
	if got := fileSize(t, path) - size; got != recOverhead+2 {
		t.Fatalf("log grew by %d bytes when Ack returned, want one %d-byte record", got, recOverhead+2)
	}
	size += recOverhead + 2
	dropped, err := o.PurgeExpired(vclock.SimEpoch.Add(time.Hour), time.Minute)
	if err != nil || len(dropped) != 20 {
		t.Fatalf("PurgeExpired = %d dropped, %v", len(dropped), err)
	}
	if wc.writes != 2 {
		t.Errorf("purge of 20 entries issued %d writes, want 1", wc.writes-1)
	}
	if got := fileSize(t, path) - size; got != recOverhead+2 {
		t.Fatalf("log grew by %d bytes when the purge returned, want one %d-byte record", got, recOverhead+2)
	}
	if _, err := o.Add("c", "ch", 40, []byte("p"), vclock.SimEpoch); err != nil || wc.writes != 3 {
		t.Errorf("Add: err %v, %d writes in all, want 3", err, wc.writes)
	}
}

// TestSealFailureKeepsOutboxUsable: when the rename that seals a full
// segment fails, the outbox keeps appending through the handle it holds —
// every call succeeds, nothing is lost — and the next write seals.
func TestSealFailureKeepsOutboxUsable(t *testing.T) {
	shrinkSegments(t, 512)
	o, path := openTemp(t)
	boom := errors.New("rename refused")
	renameFile = func(string, string) error { return boom }
	defer func() { renameFile = os.Rename }()

	var ids []uint64
	for i := 0; i < 100; i++ {
		id, err := o.Add("c", "ch", uint64(i), []byte("payload"), vclock.SimEpoch)
		if err != nil {
			t.Fatalf("Add %d with sealing refused: %v", i, err)
		}
		ids = append(ids, id)
	}
	if err := o.Ack(ids[:90]...); err != nil {
		t.Fatalf("Ack with sealing refused: %v", err)
	}
	files := diskFiles(t, path)
	if len(files) != 1 || files[path] < 3*segmentSize {
		t.Fatalf("files with sealing refused: %v, want the one log, well past the segment size", files)
	}
	checkInvariants(t, o)

	// The file system recovers: the next write seals, and the sealed segment
	// still holds the ten live entries.
	renameFile = os.Rename
	id, err := o.Add("c", "ch", 100, []byte("after"), vclock.SimEpoch)
	if err != nil {
		t.Fatal(err)
	}
	files = diskFiles(t, path)
	if len(files) != 2 || files[path+".1"] == 0 || files[path] >= segmentSize {
		t.Fatalf("files after the retried seal: %v", files)
	}
	checkInvariants(t, o)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	checkInvariants(t, o2)
	p := o2.Pending()
	if len(p) != 11 || p[0].ID != ids[90] || p[10].ID != id || string(p[10].Payload) != "after" {
		t.Errorf("recovered %d entries: %v", len(p), p)
	}
}
