package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pogo/internal/vclock"
)

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func openTemp(t *testing.T) (*Outbox, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "outbox.log")
	o, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return o, path
}

func TestAddPendingAckFIFO(t *testing.T) {
	o, _ := openTemp(t)
	defer o.Close()
	now := vclock.SimEpoch
	for i := 0; i < 3; i++ {
		if _, err := o.Add("collector", "clusters", uint64(i), []byte(fmt.Sprintf(`{"i":%d}`, i)), now); err != nil {
			t.Fatal(err)
		}
	}
	p := o.Pending()
	if len(p) != 3 {
		t.Fatalf("Pending = %d", len(p))
	}
	for i := 1; i < len(p); i++ {
		if p[i].ID <= p[i-1].ID {
			t.Error("not FIFO ordered")
		}
	}
	if err := o.Ack(p[0].ID, p[1].ID); err != nil {
		t.Fatal(err)
	}
	if o.Len() != 1 {
		t.Errorf("Len = %d after ack", o.Len())
	}
	if got := o.Pending()[0].Payload; string(got) != `{"i":2}` {
		t.Errorf("remaining payload = %s", got)
	}
}

func TestAckUnknownIDIgnored(t *testing.T) {
	o, _ := openTemp(t)
	defer o.Close()
	if err := o.Ack(999); err != nil {
		t.Errorf("Ack(unknown) = %v", err)
	}
}

// TestPayloadRetained: the outbox keeps the payload it is handed, without
// a copy, in memory and behind a file alike.
func TestPayloadRetained(t *testing.T) {
	mem := OpenMemory()
	file, _ := openTemp(t)
	for _, o := range []*Outbox{mem, file} {
		buf := []byte("hello")
		if _, err := o.Add("c", "ch", 0, buf, vclock.SimEpoch); err != nil {
			t.Fatal(err)
		}
		if p := o.Pending()[0].Payload; &p[0] != &buf[0] {
			t.Error("outbox copied the payload")
		}
	}
}

func TestRecoveryAfterReopen(t *testing.T) {
	o, path := openTemp(t)
	now := vclock.SimEpoch
	id1, _ := o.Add("c", "a", 0, []byte("one"), now)
	id2, _ := o.Add("c", "b", 0, []byte("two"), now.Add(time.Second))
	o.Ack(id1)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	// "Reboot": reopen from the same log.
	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	p := o2.Pending()
	if len(p) != 1 || p[0].ID != id2 || string(p[0].Payload) != "two" {
		t.Fatalf("recovered = %+v", p)
	}
	if !p[0].Enqueued().Equal(now.Add(time.Second)) {
		t.Errorf("Enqueued = %v", p[0].Enqueued())
	}
	// IDs must not be reused after recovery.
	id3, _ := o2.Add("c", "c", 1, []byte("three"), now)
	if id3 <= id2 {
		t.Errorf("id3 = %d not beyond %d", id3, id2)
	}
}

// tornAdd is the front of an add record, cut off inside its payload.
func tornAdd(id uint64) []byte {
	b := appendAdd(nil, &Entry{ID: id, To: "c", Channel: "b", Payload: []byte("never finished")})
	return b[:len(b)-5]
}

func appendToFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryToleratesTornTail(t *testing.T) {
	o, path := openTemp(t)
	o.Add("c", "a", 0, []byte("one"), vclock.SimEpoch)
	o.Close()
	whole := fileSize(t, path)
	// Simulate a crash mid-write: the front of a record.
	appendToFile(t, path, tornAdd(2))

	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if o2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (torn record dropped)", o2.Len())
	}
	if got := fileSize(t, path); got != whole {
		t.Errorf("log is %d bytes after Open, want the torn tail cut back to %d", got, whole)
	}
}

// TestAddsAfterTornTailSurviveRestart: what is appended after a crash left
// a torn tail must not fuse with it — it is acknowledged as buffered, so it
// has to be there after the next restart too.
func TestAddsAfterTornTailSurviveRestart(t *testing.T) {
	o, path := openTemp(t)
	o.Add("c", "a", 0, []byte("one"), vclock.SimEpoch)
	o.Close()
	appendToFile(t, path, tornAdd(2))

	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := o2.Add("c", "a", uint64(i), []byte("later"), vclock.SimEpoch); err != nil {
			t.Fatal(err)
		}
	}
	if o2.Len() != 6 {
		t.Fatalf("Len = %d before the restart, want 6", o2.Len())
	}
	o2.Close()

	o3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o3.Close()
	if o3.Len() != 6 {
		t.Errorf("Len = %d after the restart, want 6: entries added after a torn tail were lost", o3.Len())
	}
}

// TestOpenRefusesForeignFile: a non-empty file that is not a log segment of
// this format — here the JSON-lines log an older pogod wrote — is neither
// read as an empty log nor "repaired" as a torn tail: Open fails, naming
// it, and leaves it byte for byte as it was.
func TestOpenRefusesForeignFile(t *testing.T) {
	for name, content := range map[string]string{
		"json-lines log": `{"op":"add","id":1,"to":"c","ch":"a","seq":0,"payload":"eA==","at":5}` + "\n",
		"short":          "{}",
		"newer version":  "pogobox\x02 and whatever that version holds",
	} {
		path := filepath.Join(t.TempDir(), "outbox.log")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := Open(path)
		if err == nil {
			o.Close()
			t.Fatalf("%s: Open succeeded", name)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
		if got, rerr := os.ReadFile(path); rerr != nil || string(got) != content {
			t.Errorf("%s: file is now %q (%v), want it untouched", name, got, rerr)
		}
	}
}

// TestRecordLayout pins the on-disk format: the bytes one Add and one Ack
// leave in a fresh log, written out field by field as the package comment
// documents them.
func TestRecordLayout(t *testing.T) {
	o, path := openTemp(t)
	defer o.Close()
	id, err := o.Add("col", "wifi", 7, []byte{0xB1, 0x00, 0x2A}, time.UnixMilli(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Ack(id); err != nil {
		t.Fatal(err)
	}
	record := func(typ byte, body ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(append([]byte{typ}, body...), crc32.MakeTable(crc32.Castagnoli)))
		return append(append(b, typ), body...)
	}
	want := []byte("pogobox\x01")
	want = append(want, record(1, 1)...) // header: the next ID is 1
	want = append(want, record(2,        // add:
		1,          // ID
		7,          // Seq
		0xD0, 0x0F, // EnqueuedAt 1000, zigzag varint
		3, 'c', 'o', 'l', // To
		4, 'w', 'i', 'f', 'i', // Channel
		0xB1, 0x00, 0x2A, // payload, verbatim
	)...)
	want = append(want, record(3, 1, 1)...) // del: the run (1, 1)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("log bytes\n got % x\nwant % x", got, want)
	}
}

// TestRecordsAreInTheLogWhenTheCallReturns is the durability contract: when
// Add, Ack or PurgeExpired returns, a second reader of the log's files —
// here a copy of them, opened as an outbox, with the first still open —
// sees the call's effect. Segments are small so that the files read include
// ones just sealed.
func TestRecordsAreInTheLogWhenTheCallReturns(t *testing.T) {
	shrinkSegments(t, 256)
	o, path := openTemp(t)
	defer o.Close()
	seen := func(what string) {
		t.Helper()
		o2, err := openDamaged(t, filepath.Join(t.TempDir(), "copy"), readFiles(t, path), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer o2.Close()
		if got, want := o2.Pending(), o.Pending(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("after %s a reader of the files sees\n%v\nthe outbox holds\n%v", what, got, want)
		}
	}
	t0 := vclock.SimEpoch
	var ids []uint64
	for i := 0; i < 40; i++ {
		id, err := o.Add("col", "ch", uint64(i), []byte("payload"), t0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		seen("Add")
	}
	if err := o.Ack(ids[3], ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	seen("Ack")
	if _, err := o.PurgeExpired(t0.Add(50*time.Minute), 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	seen("PurgeExpired")
	if n := len(diskFiles(t, path)); n < 3 {
		t.Errorf("%d segment files: the test meant to read sealed ones too", n)
	}
}

func TestPurgeExpired(t *testing.T) {
	o, _ := openTemp(t)
	defer o.Close()
	t0 := vclock.SimEpoch
	o.Add("c", "old", 0, []byte("x"), t0)
	o.Add("c", "new", 1, []byte("y"), t0.Add(23*time.Hour))
	dropped, err := o.PurgeExpired(t0.Add(25*time.Hour), DefaultMaxAge)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0].Channel != "old" {
		t.Errorf("dropped = %+v, want the single stale entry", dropped)
	}
	p := o.Pending()
	if len(p) != 1 || p[0].Channel != "new" {
		t.Errorf("Pending = %+v", p)
	}
	// maxAge <= 0 disables purging.
	if d, _ := o.PurgeExpired(t0.Add(1000*time.Hour), 0); len(d) != 0 {
		t.Errorf("purge with maxAge=0 dropped %d", len(d))
	}
}

func TestPurgeRoamingScenario(t *testing.T) {
	// User 2a: abroad with data roaming off for 3 days while sampling
	// hourly; everything older than 24 h is lost.
	o := OpenMemory()
	t0 := vclock.SimEpoch
	for h := 0; h < 72; h++ {
		o.Add("col", "clusters", uint64(h), []byte("c"), t0.Add(time.Duration(h)*time.Hour))
	}
	now := t0.Add(72 * time.Hour)
	dropped, _ := o.PurgeExpired(now, DefaultMaxAge)
	if len(dropped) != 48 {
		t.Errorf("dropped = %d, want 48", len(dropped))
	}
	for i := 1; i < len(dropped); i++ {
		if dropped[i].ID <= dropped[i-1].ID {
			t.Fatal("dropped entries not in ID order")
		}
	}
	if o.Len() != 24 {
		t.Errorf("Len = %d, want 24", o.Len())
	}
}

func TestClosedOperations(t *testing.T) {
	o, _ := openTemp(t)
	o.Close()
	if err := o.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if _, err := o.Add("c", "a", 0, nil, vclock.SimEpoch); err != ErrClosed {
		t.Errorf("Add after close = %v", err)
	}
	if err := o.Ack(1); err != ErrClosed {
		t.Errorf("Ack after close = %v", err)
	}
	if _, err := o.PurgeExpired(vclock.SimEpoch, time.Hour); err != ErrClosed {
		t.Errorf("Purge after close = %v", err)
	}
}

// diskBytes returns the number and total size of the log's segment files.
func diskBytes(t *testing.T, path string) (files int, bytes int64) {
	t.Helper()
	for _, size := range diskFiles(t, path) {
		files++
		bytes += size
	}
	return files, bytes
}

// TestSegmentDropBoundsDisk: acknowledged entries give their disk back a
// segment at a time — the log is bounded by what is live, not by what was
// ever written.
func TestSegmentDropBoundsDisk(t *testing.T) {
	shrinkSegments(t, 4096)
	o, path := openTemp(t)
	now := vclock.SimEpoch
	var ids []uint64
	for i := 0; i < 3000; i++ {
		id, _ := o.Add("c", "ch", uint64(i), []byte("payload-padding-padding"), now)
		ids = append(ids, id)
	}
	if files, _ := diskBytes(t, path); files < 20 {
		t.Fatalf("%d segment files for 3000 unacknowledged entries", files)
	}
	o.Ack(ids[:2990]...)
	if o.Len() != 10 {
		t.Fatalf("Len = %d", o.Len())
	}
	if files, bytes := diskBytes(t, path); files > 2 || bytes > 2*segmentSize {
		t.Errorf("%d files, %d bytes on disk for 10 live entries: dead segments were not dropped", files, bytes)
	}
	o.Close()
	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if o2.Len() != 10 {
		t.Errorf("recovered Len = %d after the drop", o2.Len())
	}
}

// TestNextIDSurvivesDrainedLog: IDs are never handed out twice, even when
// every record that used them is gone — the segment header carries the
// counter across the drop and the restart.
func TestNextIDSurvivesDrainedLog(t *testing.T) {
	shrinkSegments(t, 1024)
	o, path := openTemp(t)
	// Add and acknowledge, at least a hundred times, until an Add has just
	// sealed the active segment: its Ack then lands in the new one and drops
	// the old, and no add record is left anywhere to give the counter away.
	last := uint64(0)
	for last < 100 || o.segs[0].adds > 0 {
		id, err := o.Add("c", "ch", last, []byte("payload-padding-padding"), vclock.SimEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Ack(id); err != nil {
			t.Fatal(err)
		}
		last = id
	}
	if files, _ := diskBytes(t, path); files != 1 {
		t.Fatalf("%d segment files after everything was acknowledged, want only the active one", files)
	}
	if data, err := os.ReadFile(path); err != nil || bytes.Contains(data, []byte("payload-padding")) {
		t.Fatalf("the active segment still holds add records (%v): the test meant them all dropped", err)
	}
	o.Close()
	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if id, _ := o2.Add("c", "ch", last, nil, vclock.SimEpoch); id != last+1 {
		t.Errorf("first ID after reopening the drained log = %d, want %d", id, last+1)
	}
}

// TestStragglerDoesNotPinTheLog: one entry that is never acknowledged, under
// a hundred thousand that are, must not keep every segment since its own on
// disk. It is moved along instead: never more than three segment files, and
// it is still pending after a restart.
func TestStragglerDoesNotPinTheLog(t *testing.T) {
	o, path := openTemp(t)
	now := vclock.SimEpoch
	straggler, err := o.Add("col", "rare", 0, []byte("never acknowledged"), now)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 60)
	segs, seals := 1, 0
	for i := 0; i < 100_000; i++ {
		id, err := o.Add("col", "stream", uint64(i), payload, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Ack(id); err != nil {
			t.Fatal(err)
		}
		if n := len(o.segs); n != segs {
			if segs = n; n > 1 {
				seals++
			}
			if files, _ := diskBytes(t, path); files > 3 || files != n {
				t.Fatalf("after %d messages: %d segment files, %d tracked; want at most 3", i, files, n)
			}
		}
	}
	if seals < 5 {
		t.Fatalf("%d seals in 100k messages: the test meant several", seals)
	}
	if _, bytes := diskBytes(t, path); bytes > 3*segmentSize {
		t.Errorf("%d bytes on disk for one live entry", bytes)
	}
	checkInvariants(t, o)
	o.Close()
	o2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if p := o2.Pending(); len(p) != 1 || p[0].ID != straggler || string(p[0].Payload) != "never acknowledged" {
		t.Errorf("after the restart: %v, want the straggler alone", p)
	}
}

// FuzzReplay: whatever bytes a segment file holds, Open neither panics nor
// hangs, refuses or recovers, and what it recovers is a consistent outbox
// that takes an Add and gives it back after one more restart.
func FuzzReplay(f *testing.F) {
	valid := (&Outbox{nextID: 3}).appendHeader(nil)
	valid = appendAdd(valid, &Entry{ID: 3, To: "col", Channel: "wifi", Seq: 1, Payload: []byte("payload"), EnqueuedAt: 1000})
	valid = appendAdd(valid, &Entry{ID: 4, To: "col", Channel: "wifi", Seq: 2, EnqueuedAt: 2000})
	valid, at := beginRecord(valid, recDel)
	valid = append(valid, 3, 1)
	endRecord(valid, at)
	f.Add([]byte(nil), valid)
	f.Add(valid, []byte(segmentMagic))
	f.Add(valid[:len(valid)-4], valid[:20])
	f.Add([]byte("pogo"), []byte(`{"op":"add","id":1}`))
	f.Fuzz(func(t *testing.T, sealed, active []byte) {
		path := filepath.Join(t.TempDir(), "outbox.log")
		if len(sealed) > 0 {
			if err := os.WriteFile(path+".1", sealed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, active, 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := Open(path)
		if err != nil {
			return
		}
		checkInvariants(t, o)
		id, err := o.Add("col", "fuzz", 0, []byte("x"), vclock.SimEpoch)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, o)
		want := o.Pending()
		o.Close()
		if o, err = Open(path); err != nil {
			t.Fatalf("reopen after a successful Open and Add: %v", err)
		}
		defer o.Close()
		checkInvariants(t, o)
		if got := o.Pending(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after reopen\n got %v\nwant %v", got, want)
		}
		if e, ok := o.Get(id); !ok || string(e.Payload) != "x" {
			t.Fatalf("the entry added after recovery did not survive the restart")
		}
	})
}

func TestMemoryOutboxNoFiles(t *testing.T) {
	o := OpenMemory()
	defer o.Close()
	id, err := o.Add("c", "ch", 0, []byte("x"), vclock.SimEpoch)
	if err != nil || id != 1 {
		t.Fatalf("Add = %d, %v", id, err)
	}
	if o.Len() != 1 {
		t.Error("memory outbox lost entry")
	}
}

// TestSeqSurvivesReplayAfterReconnect is the reboot half of §4.6: a phone
// dies with unacked messages buffered, comes back, and the replayed entries
// must carry their original FIFO sequence numbers so the receiver's ordered
// delivery state stays coherent.
func TestSeqSurvivesReplayAfterReconnect(t *testing.T) {
	o, path := openTemp(t)
	now := vclock.SimEpoch
	var ids []uint64
	for i := 0; i < 6; i++ {
		id, err := o.Add("col", "battery", uint64(i), []byte(fmt.Sprintf("m%d", i)), now)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The first half was delivered and acked before the battery died.
	if err := o.Ack(ids[:3]...); err != nil {
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
	if len(p) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(p))
	}
	for i, e := range p {
		if e.Seq != uint64(i+3) {
			t.Errorf("entry %d: Seq = %d, want %d", i, e.Seq, i+3)
		}
		if string(e.Payload) != fmt.Sprintf("m%d", i+3) {
			t.Errorf("entry %d: payload = %s", i, e.Payload)
		}
	}
}

// Property: for any interleaving of adds and acks, Pending = added − acked,
// in FIFO order, and survives a reopen.
func TestPropertyAddAckRecover(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(args []reflect.Value, r *rand.Rand) {
			ops := make([]bool, 5+r.Intn(60)) // true=add, false=ack-oldest
			for i := range ops {
				ops[i] = r.Intn(3) > 0
			}
			args[0] = reflect.ValueOf(ops)
		},
	}
	dir := t.TempDir()
	run := 0
	prop := func(ops []bool) bool {
		run++
		path := filepath.Join(dir, fmt.Sprintf("box-%d.log", run))
		o, err := Open(path)
		if err != nil {
			return false
		}
		var live []uint64
		for _, add := range ops {
			if add {
				id, err := o.Add("c", "ch", 0, []byte("p"), vclock.SimEpoch)
				if err != nil {
					return false
				}
				live = append(live, id)
			} else if len(live) > 0 {
				if err := o.Ack(live[0]); err != nil {
					return false
				}
				live = live[1:]
			}
		}
		if err := o.Close(); err != nil {
			return false
		}
		o2, err := Open(path)
		if err != nil {
			return false
		}
		defer o2.Close()
		p := o2.Pending()
		if len(p) != len(live) {
			return false
		}
		for i := range p {
			if p[i].ID != live[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
