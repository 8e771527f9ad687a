package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"pogo/internal/vclock"
)

// refBox is the outbox as it used to be built — a map, sorted on every read
// — plus a model of the log file: how many lines it holds, how many of them
// are deletions, and the highest ID an add line carries (what a replay
// recovers nextID from).
type refBox struct {
	entries  map[uint64]Entry
	nextID   uint64
	logLines int
	logDels  int
	logMaxID uint64
}

func newRefBox() *refBox { return &refBox{entries: map[uint64]Entry{}, nextID: 1} }

func (r *refBox) add(e Entry) {
	r.entries[e.ID] = e
	r.nextID = e.ID + 1
	r.logLines++
	r.logMaxID = max(r.logMaxID, e.ID)
}

func (r *refBox) del(id uint64) {
	delete(r.entries, id)
	r.logLines++
	r.logDels++
}

// settle models the compaction check that ends every deleting call.
func (r *refBox) settle() {
	if r.logDels < 64 || r.logDels < 4*len(r.entries) {
		return
	}
	r.logLines, r.logDels, r.logMaxID = len(r.entries), 0, 0
	for id := range r.entries {
		r.logMaxID = max(r.logMaxID, id)
	}
}

func (r *refBox) reopen() { r.nextID = r.logMaxID + 1 }

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

func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestModelRandomOps drives an outbox and the map-plus-sort reference with
// the same seeded sequence of Add / Ack / PurgeExpired / Close+Open and
// requires every observable to agree after every step: order, length,
// cursor reads, by-ID reads, per-channel floors, the next ID (also after a
// replay, gaps and all), the purge's dropped list, and — through the log's
// line count — when the log is compacted.
func TestModelRandomOps(t *testing.T) {
	dests := []string{"col", "peer-a", "peer-b"}
	chans := []string{"battery", "clusters", "wifi", "log"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "outbox.log")
		o, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefBox()
		seqs := map[string]uint64{}
		now := vclock.SimEpoch
		var scratch []Entry

		compare := func(step int, op string) {
			t.Helper()
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
			for _, to := range append(dests, "nobody") {
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
		}

		for step := 0; step < 1200; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 50:
				op = "add"
				// Bursts, so the backlog is sometimes hundreds deep.
				for n := 1 + rng.Intn(8)*rng.Intn(4); n > 0; n-- {
					to, ch := dests[rng.Intn(len(dests))], chans[rng.Intn(len(chans))]
					// The clock mostly moves forward; now and then it steps back.
					now = now.Add(time.Duration(rng.Intn(40)-4) * time.Minute)
					key := to + "\x00" + ch
					payload := []byte(fmt.Sprintf("p%d", step))
					id, err := o.Add(to, ch, seqs[key], payload, now)
					if err != nil {
						t.Fatal(err)
					}
					if id != ref.nextID {
						t.Fatalf("seed %d step %d: Add returned ID %d, reference expects %d", seed, step, id, ref.nextID)
					}
					ref.add(Entry{ID: id, To: to, Channel: ch, Seq: seqs[key], Payload: payload, EnqueuedAt: now.UnixMilli()})
					seqs[key]++
				}
			case r < 85:
				op = "ack"
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
				for _, id := range ids {
					if _, ok := ref.entries[id]; ok {
						ref.del(id)
					}
				}
				ref.settle()
			case r < 93:
				op = "purge"
				maxAge := time.Duration(1+rng.Intn(12)) * time.Hour
				dropped, err := o.PurgeExpired(now, maxAge)
				if err != nil {
					t.Fatal(err)
				}
				var want []Entry
				for _, e := range ref.after(0) {
					if e.EnqueuedAt < now.Add(-maxAge).UnixMilli() {
						want = append(want, e)
						ref.del(e.ID)
					}
				}
				ref.settle()
				if len(dropped) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dropped, want)) {
					t.Fatalf("seed %d step %d: PurgeExpired dropped\n got %v\nwant %v", seed, step, dropped, want)
				}
			default:
				op = "reopen"
				// Every record must already be with the OS: read the log
				// before Close gets a chance to flush anything.
				if got := countLines(t, path); got != ref.logLines {
					t.Fatalf("seed %d step %d: log holds %d lines before Close, model says %d", seed, step, got, ref.logLines)
				}
				if err := o.Close(); err != nil {
					t.Fatal(err)
				}
				if o, err = Open(path); err != nil {
					t.Fatal(err)
				}
				ref.reopen()
			}
			compare(step, op)
		}
		o.Close()
	}
}

// TestReplayUnorderedLog: a log no outbox of this package would write — IDs
// going backwards, an ID added twice, a deletion for an ID never added, a
// deleted ID added again — replays to what replaying it into a map would
// give, in ID order.
func TestReplayUnorderedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.log")
	lines := []string{
		`{"op":"add","id":10,"to":"c","ch":"a","seq":4,"payload":"eA==","at":5}`,
		`{"op":"add","id":3,"to":"c","ch":"a","seq":1,"payload":"eA==","at":9}`,
		`{"op":"add","id":7,"to":"c","ch":"b","seq":0,"payload":"eA==","at":2}`,
		`{"op":"del","id":99}`,
		`{"op":"add","id":7,"to":"c","ch":"b","seq":8,"payload":"eQ==","at":3}`,
		`{"op":"del","id":10}`,
		`{"op":"add","id":1,"to":"d","ch":"a","seq":0,"payload":"eA==","at":7}`,
		`{"op":"del","id":3}`,
		`{"op":"add","id":3,"to":"c","ch":"a","seq":2,"payload":"eg==","at":4}`,
	}
	if err := os.WriteFile(path, []byte(joinLines(lines)), 0o644); err != nil {
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

func joinLines(lines []string) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
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

// TestAckBatchIsOneWrite: an ack set is one write to the log however many
// IDs it names, and it is with the OS when Ack returns; so is a purge.
func TestAckBatchIsOneWrite(t *testing.T) {
	o, path := openTemp(t)
	defer o.Close()
	var ids []uint64
	for i := 0; i < 40; i++ {
		id, _ := o.Add("c", "ch", uint64(i), []byte("p"), vclock.SimEpoch)
		ids = append(ids, id)
	}
	wc := &writeCounter{f: o.file}
	o.w = bufio.NewWriter(wc)
	if err := o.Ack(ids[:20]...); err != nil {
		t.Fatal(err)
	}
	if wc.writes != 1 {
		t.Errorf("Ack of 20 IDs issued %d writes, want 1", wc.writes)
	}
	if got := countLines(t, path); got != 60 {
		t.Fatalf("log holds %d lines after Ack returned, want 40 adds + 20 dels", got)
	}
	dropped, err := o.PurgeExpired(vclock.SimEpoch.Add(time.Hour), time.Minute)
	if err != nil || len(dropped) != 20 {
		t.Fatalf("PurgeExpired = %d dropped, %v", len(dropped), err)
	}
	if wc.writes != 2 {
		t.Errorf("purge of 20 entries issued %d writes, want 1", wc.writes-1)
	}
	if got := countLines(t, path); got != 80 {
		t.Fatalf("log holds %d lines after the purge returned, want 80", got)
	}
	if _, err := o.Add("c", "ch", 40, []byte("p"), vclock.SimEpoch); err != nil || wc.writes != 3 {
		t.Errorf("Add: err %v, %d writes in all, want 3", err, wc.writes)
	}
}

// TestCompactionFailureKeepsOutboxUsable: when the rename that installs a
// compacted log fails, the outbox keeps appending to the old log — nothing
// is lost, later calls succeed, no *.compact file is left behind — and the
// next deletion retries the compaction.
func TestCompactionFailureKeepsOutboxUsable(t *testing.T) {
	o, path := openTemp(t)
	var ids []uint64
	for i := 0; i < 100; i++ {
		id, _ := o.Add("c", "ch", uint64(i), []byte("payload"), vclock.SimEpoch)
		ids = append(ids, id)
	}
	boom := errors.New("rename refused")
	renameFile = func(string, string) error { return boom }
	defer func() { renameFile = os.Rename }()

	if err := o.Ack(ids[:90]...); !errors.Is(err, boom) {
		t.Fatalf("Ack = %v, want the compaction's rename error", err)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("*.compact left behind: %v", err)
	}
	if o.Len() != 10 {
		t.Fatalf("Len = %d after the failed compaction", o.Len())
	}
	// The outbox still works, on the old log.
	id, err := o.Add("c", "ch", 100, []byte("after"), vclock.SimEpoch)
	if err != nil {
		t.Fatalf("Add after failed compaction: %v", err)
	}
	if got := countLines(t, path); got != 100+90+1 {
		t.Errorf("old log holds %d lines, want every record (191)", got)
	}

	// The file system recovers: the next deletion compacts.
	renameFile = os.Rename
	if err := o.Ack(ids[90]); err != nil {
		t.Fatalf("Ack after recovery: %v", err)
	}
	if got := countLines(t, path); got != 10 {
		t.Errorf("log holds %d lines after the retried compaction, want the 10 live entries", got)
	}
	if _, err := o.Add("c", "ch", 101, []byte("post-compaction"), vclock.SimEpoch); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	p := o2.Pending()
	if len(p) != 11 || p[0].ID != ids[91] || p[9].ID != id || string(p[10].Payload) != "post-compaction" {
		t.Errorf("recovered %d entries: %v", len(p), p)
	}
}
