package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"slices"
	"strconv"
)

// The fleet's delivery log used to be one fleetEntry (two string headers, an
// interface-free but pointer-bearing struct) plus one formatted line per
// delivery. At 100k phones that is ~2.3M deliveries: the strings alone cost
// more than the simulated devices. The compact form below stores a delivery
// in 20 bytes — entity names become indexes into fleetNames, channels become
// one-byte codes, instants become milliseconds-since-start — and the log is
// chunked so growth never copies. Lines are only formatted when a caller asks
// for the log (KeepLog) or while hashing.

// fleetEntryC is one application-level delivery in compact form. recv/send
// index fleetNames; -1 means unknown (never produced by the fleet workload,
// tolerated for robustness).
type fleetEntryC struct {
	atMs int32 // delivery instant, ms since simulation start (truncated)
	recv int32
	send int32
	n    int32 // payload sequence number, -1 if the payload was not ours
	ch   uint8 // fleetChan* code
}

const (
	fleetChanUpload = uint8(0)
	fleetChanCmd    = uint8(1)
	fleetChanOther  = uint8(0xff)
)

func fleetChanCode(ch string) uint8 {
	switch ch {
	case "upload":
		return fleetChanUpload
	case "cmd":
		return fleetChanCmd
	}
	return fleetChanOther
}

func fleetChanName(ch uint8) string {
	switch ch {
	case fleetChanUpload:
		return "upload"
	case fleetChanCmd:
		return "cmd"
	}
	return "?"
}

// fleetChanSortKey orders channel codes the way the textual log sorted
// channel names: "cmd" < "upload".
func fleetChanSortKey(ch uint8) uint8 {
	switch ch {
	case fleetChanCmd:
		return 0
	case fleetChanUpload:
		return 1
	}
	return 0xff
}

// fleetLogChunk caps a log chunk at 16k entries (~320 KB). Early chunks are
// smaller so tiny scenario worlds don't pay 320 KB per shard.
const fleetLogChunk = 1 << 14

// fleetLog is one shard's delivery log: an append-only chunked slice of
// compact entries. Only the owning shard appends (delivery handlers run on
// the shard's worker); readers run at barriers or after the run.
type fleetLog struct {
	chunks [][]fleetEntryC
	n      int
}

func (l *fleetLog) add(e fleetEntryC) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		size := fleetLogChunk
		if k < 7 {
			size = 64 << uint(k+1)
		}
		l.chunks = append(l.chunks, make([]fleetEntryC, 0, size))
		k++
	}
	l.chunks[k] = append(l.chunks[k], e)
	l.n++
}

// each visits entries in append order.
func (l *fleetLog) each(fn func(fleetEntryC)) {
	for _, c := range l.chunks {
		for _, e := range c {
			fn(e)
		}
	}
}

// appendEntry formats one compact entry exactly like the historical log line:
// "t=<ms> <receiver> <- <sender> <channel> <n>".
func (fn *fleetNames) appendEntry(dst []byte, e fleetEntryC) []byte {
	dst = append(dst, "t="...)
	dst = strconv.AppendInt(dst, int64(e.atMs), 10)
	dst = append(dst, ' ')
	dst = fn.appendName(dst, e.recv)
	dst = append(dst, " <- "...)
	dst = fn.appendName(dst, e.send)
	dst = append(dst, ' ')
	dst = append(dst, fleetChanName(e.ch)...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(e.n), 10)
	return dst
}

func (fn *fleetNames) appendName(dst []byte, i int32) []byte {
	if i >= 0 && int(i) < len(fn.names) {
		return append(dst, fn.names[i]...)
	}
	return append(dst, '?')
}

// fleetAudit checks every (receiver, sender, channel) stream for exactly-once
// FIFO delivery of 0..n-1 over bitmaps instead of per-stream maps: two bits
// arrays sized phones × messages, scanned in per-shard arrival order (each
// stream's receiver lives on one shard, so shard order preserves per-stream
// FIFO order). Entries that do not belong to a known stream are ignored, as
// the map-based audit ignored them.
func fleetAudit(cfg *FleetConfig, fn *fleetNames, logs []*fleetLog) (lost, dup, ooo int) {
	phones := cfg.Phones
	upWant, cmdWant := cfg.MessagesPerPhone, cfg.CommandsPerPhone
	upWords := (upWant + 63) / 64
	cmdWords := (cmdWant + 63) / 64
	upBits := make([]uint64, phones*upWords)
	cmdBits := make([]uint64, phones*cmdWords)
	upLast := make([]int32, phones)
	cmdLast := make([]int32, phones)
	for i := range upLast {
		upLast[i], cmdLast[i] = -1, -1
	}
	upOOO := make([]bool, phones)
	cmdOOO := make([]bool, phones)

	mark := func(set []uint64, words, p int, n int32) bool {
		w := &set[p*words+int(n)/64]
		b := uint64(1) << (uint(n) % 64)
		if *w&b != 0 {
			return true
		}
		*w |= b
		return false
	}
	for _, l := range logs {
		l.each(func(e fleetEntryC) {
			switch e.ch {
			case fleetChanUpload:
				p := int(e.send)
				if p < 0 || p >= phones || e.n < 0 || int(e.n) >= upWant {
					return
				}
				if int(e.recv) != phones+int(fn.collOf[p]) {
					return // not the stream this phone uploads on
				}
				if mark(upBits, upWords, p, e.n) {
					dup++
				}
				if e.n < upLast[p] {
					if !upOOO[p] {
						upOOO[p] = true
						ooo++
					}
				} else {
					upLast[p] = e.n
				}
			case fleetChanCmd:
				p := int(e.recv)
				if p < 0 || p >= phones || e.n < 0 || int(e.n) >= cmdWant {
					return
				}
				if int(e.send) != phones+int(fn.collOf[p]) {
					return
				}
				if mark(cmdBits, cmdWords, p, e.n) {
					dup++
				}
				if e.n < cmdLast[p] {
					if !cmdOOO[p] {
						cmdOOO[p] = true
						ooo++
					}
				} else {
					cmdLast[p] = e.n
				}
			}
		})
	}
	set := 0
	for _, w := range upBits {
		set += bits.OnesCount64(w)
	}
	for _, w := range cmdBits {
		set += bits.OnesCount64(w)
	}
	lost = phones*upWant + phones*cmdWant - set
	return lost, dup, ooo
}

// fleetSeal is the post-run reduction of the per-shard logs: the audit
// verdict, the content-ordered log hash, and (only if asked) the textual log.
type fleetSeal struct {
	delivered      int
	lost, dup, ooo int
	sha            string
	log            []string
}

// fleetSealLog merges the per-shard logs (shard order), audits them,
// sorts by the shard-layout-independent content key and hashes the formatted
// lines through a streaming SHA-256. The sort key — (ms, receiver, sender,
// channel, n), names compared lexicographically via the precomputed rank
// table — is unique because delivery is exactly-once per stream, so the
// sealed log is a pure function of the seed at any shard count.
func fleetSealLog(cfg *FleetConfig, fn *fleetNames, logs []*fleetLog, keep bool) fleetSeal {
	var s fleetSeal
	s.lost, s.dup, s.ooo = fleetAudit(cfg, fn, logs)
	total := 0
	for _, l := range logs {
		total += l.n
	}
	s.delivered = total
	entries := make([]fleetEntryC, 0, total)
	for _, l := range logs {
		l.each(func(e fleetEntryC) { entries = append(entries, e) })
	}
	slices.SortFunc(entries, func(a, b fleetEntryC) int {
		if a.atMs != b.atMs {
			if a.atMs < b.atMs {
				return -1
			}
			return 1
		}
		if ra, rb := fn.rankOf(a.recv), fn.rankOf(b.recv); ra != rb {
			return int(ra) - int(rb)
		}
		if ra, rb := fn.rankOf(a.send), fn.rankOf(b.send); ra != rb {
			return int(ra) - int(rb)
		}
		if ka, kb := fleetChanSortKey(a.ch), fleetChanSortKey(b.ch); ka != kb {
			return int(ka) - int(kb)
		}
		if a.n < b.n {
			return -1
		}
		if a.n > b.n {
			return 1
		}
		return 0
	})
	h := sha256.New()
	var buf []byte
	if keep {
		s.log = make([]string, 0, total)
	}
	for i, e := range entries {
		buf = fn.appendEntry(buf[:0], e)
		if i > 0 {
			h.Write([]byte{'\n'})
		}
		h.Write(buf)
		if keep {
			s.log = append(s.log, string(buf))
		}
	}
	s.sha = hex.EncodeToString(h.Sum(nil))
	return s
}
