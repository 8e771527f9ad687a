package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pogo/internal/msg"
)

// drainDeadline is how long after the generators stop the audit waits for
// every message to be logged and every outbox to empty.
const drainDeadline = 20 * time.Second

// phoneRun is the harness's per-phone bookkeeping: what was published when,
// and what the collector logged.
type phoneRun struct {
	corpus []msg.Map
	tokens chan struct{} // closed loop: one slot per outstanding message

	mu         sync.Mutex
	pubAt      []int64 // per sequence number: ns since the run epoch it was published (open loop: was due)
	seen       []uint8 // per sequence number: times it appeared in the collector log
	lastSeq    int
	violations int     // log lines whose sequence is not the previous + 1
	latencies  []int64 // ns, messages logged inside the measured window
	lateness   []int64 // ns, open loop: how late the generator published, measured window only
}

// run is one pass of one workload over one world.
type run struct {
	w     *world
	wl    *workload
	tr    *tracer // nil on an untraced pass
	epoch time.Time

	phones    []*phoneRun
	byName    map[string]int
	measuring atomic.Bool
	delivered atomic.Int64 // log lines seen, all phones
	target    atomic.Int64 // batch loop: delivered count that completes the round
	roundDone chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
}

// counters is a snapshot of the process- and world-wide totals the
// per-message metrics are deltas of.
type counters struct {
	at        time.Time
	delivered int64
	cpu       time.Duration
	mallocs   uint64
	allocB    uint64
	uplink    int64
}

// passResult is what one pass measured.
type passResult struct {
	elapsed      time.Duration
	delivered    int64 // inside the measured window
	deliveredPS  float64
	cpuUS        float64 // per delivered message
	allocs       float64
	allocBytes   float64
	uplinkBytes  float64
	latP50MS     float64
	latP90MS     float64
	latP99MS     float64
	genLateP50MS float64
	genLateP99MS float64

	published  int64 // whole pass, warm-up included
	lost       int64
	duplicated int64
	stuck      int64 // still in an outbox at the drain deadline
	violations int64
	msgsPerFl  float64
	retries    int64
	duplicates int64
	reconnects int64

	windowFrom, windowTo int64 // tracer clock, for span selection
}

func (r *passResult) failed() int64 { return r.lost + r.duplicated + r.stuck }

// endToEnd returns the pass's end-to-end metrics by name (setup_s is
// measured apart from the passes).
func (r *passResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"delivered_per_s":      r.deliveredPS,
		"allocs_per_msg":       r.allocs,
		"alloc_bytes_per_msg":  r.allocBytes,
		"uplink_bytes_per_msg": r.uplinkBytes,
		"latency_p50_ms":       r.latP50MS,
		"latency_p90_ms":       r.latP90MS,
	}
}

func newRun(w *world, seed int64, tr *tracer) *run {
	r := &run{
		w: w, wl: w.wl, tr: tr, epoch: time.Now(),
		byName:    make(map[string]int),
		roundDone: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	for i := range w.phones {
		p := &phoneRun{corpus: w.wl.phoneCorpus(seed, i), lastSeq: -1}
		if w.wl.mode == closedLoop {
			p.tokens = make(chan struct{}, w.wl.window)
		}
		r.phones = append(r.phones, p)
		r.byName[phoneID(i)] = i
	}
	w.col.Logs().SetOnAppend(r.onAppend)
	return r
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// parseLine splits a sink log line "<origin> <sequence>[ ...]".
func parseLine(line string) (origin string, seq int, ok bool) {
	origin, rest, _ := strings.Cut(line, " ")
	digits, _, _ := strings.Cut(rest, " ")
	n, err := strconv.ParseUint(digits, 10, 31)
	if err != nil {
		return "", 0, false
	}
	return origin, int(n), true
}

// onAppend is the end of a message's journey: the collector script logged
// it. It runs on the script's goroutine, so it only books and signals.
func (r *run) onAppend(logName, line string) {
	if logName != sinkLog {
		return
	}
	now := r.now()
	origin, seq, ok := parseLine(line)
	idx, known := r.byName[origin]
	if !ok || !known {
		return // counted as lost by the audit
	}
	p := r.phones[idx]
	p.mu.Lock()
	if seq < len(p.seen) {
		if p.seen[seq] < 255 {
			p.seen[seq]++
		}
		if seq != p.lastSeq+1 {
			p.violations++
		}
		p.lastSeq = seq
		if r.measuring.Load() {
			p.latencies = append(p.latencies, now-p.pubAt[seq])
		}
	}
	p.mu.Unlock()
	if r.tr != nil {
		r.tr.phones[idx].logged(seq, r.tr.now())
	}
	if p.tokens != nil {
		select {
		case <-p.tokens:
		default:
		}
	}
	if r.delivered.Add(1) == r.target.Load() {
		select {
		case r.roundDone <- struct{}{}:
		default:
		}
	}
}

// maxBacklog is the outbox depth at which a generator holds its next message
// back. One flush must stay below the 241 messages a stanza can carry at
// this commit (README.md, finding 2): past it the phone's stream is reset
// and, on an open loop, never recovers. A whole-process stall of 80 ms —
// routine on a shared box — would otherwise push stream_paced's catch-up
// burst over the limit. The wait is charged to the message: its latency
// still counts from its due instant.
const maxBacklog = batchRound

// awaitRoom blocks while phone i's outbox is maxBacklog deep.
func (r *run) awaitRoom(i int) {
	for r.w.phones[i].Pending() >= maxBacklog && !r.stopped() {
		time.Sleep(50 * time.Microsecond)
	}
}

// publish sends phone i's next message. due is the instant its latency
// counts from: now on a closed loop, the scheduled instant on an open one.
func (r *run) publish(i int, due int64) {
	p := r.phones[i]
	p.mu.Lock()
	seq := len(p.pubAt)
	p.pubAt = append(p.pubAt, due)
	p.seen = append(p.seen, 0)
	p.mu.Unlock()
	m := p.corpus[seq%len(p.corpus)]
	m[r.wl.seqKey] = float64(seq)
	if r.tr == nil {
		r.w.brokers[i].Publish(r.wl.channel, m)
		return
	}
	late := r.now() - due
	t0 := r.tr.now()
	r.w.brokers[i].Publish(r.wl.channel, m)
	r.tr.phones[i].published(seq, t0-late, r.tr.now())
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// closedGen keeps the window full: it publishes whenever a slot frees.
func (r *run) closedGen(i int) {
	defer r.wg.Done()
	p := r.phones[i]
	for {
		select {
		case p.tokens <- struct{}{}:
			r.awaitRoom(i)
			r.publish(i, r.now())
		case <-r.stop:
			return
		}
	}
}

// openGen publishes on a fixed schedule. It never skips a slot: after a
// stall it publishes everything that fell due, each timed from its own due
// instant, so the wait a stall imposes on later messages is counted.
//
// The generator's own lateness is part of every latency it produces, and it
// is not small: a Go timer a fraction of a millisecond ahead fires 0.2 ms
// late at the median in a mostly idle process. It is reported
// (harness.gen_late_p50_ms, _p99_ms) rather than engineered away: sleeping
// in nanosleep(2) on a locked thread halves it but makes the runtime hand
// processors back and forth, which raised the process's CPU per message by
// two thirds and tripled the p99 latency.
func (r *run) openGen(i int) {
	defer r.wg.Done()
	p := r.phones[i]
	interval := time.Duration(float64(time.Second) * float64(len(r.phones)) / r.wl.rate)
	// Phones are staggered evenly so the total rate is smooth.
	next := r.now() + int64(interval)*int64(i)/int64(len(r.phones))
	for !r.stopped() {
		now := r.now()
		if now < next {
			time.Sleep(time.Duration(next - now))
			continue
		}
		if r.measuring.Load() {
			p.mu.Lock()
			p.lateness = append(p.lateness, now-next)
			p.mu.Unlock()
		}
		r.awaitRoom(i)
		r.publish(i, next)
		next += int64(interval)
	}
}

// batchGen plays rounds: every phone buffers a round into its file outbox,
// then the harness, playing the tail detector, flushes each phone and waits
// for the round to be logged and acknowledged.
func (r *run) batchGen() {
	defer r.wg.Done()
	var published int64
	for !r.stopped() {
		published += int64(r.wl.window * len(r.phones))
		r.target.Store(published)
		var round sync.WaitGroup
		for i := range r.phones {
			round.Add(1)
			go func(i int) {
				defer round.Done()
				for k := 0; k < r.wl.window; k++ {
					r.publish(i, r.now())
				}
			}(i)
		}
		round.Wait()
		for _, p := range r.w.phones {
			p.Flush()
		}
		select {
		case <-r.roundDone:
		case <-r.stop:
			return
		}
		for r.w.pending() != 0 && !r.stopped() {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func (r *run) startGenerators() {
	switch r.wl.mode {
	case closedLoop:
		for i := range r.phones {
			r.wg.Add(1)
			go r.closedGen(i)
		}
	case openLoop:
		for i := range r.phones {
			r.wg.Add(1)
			go r.openGen(i)
		}
	case batchLoop:
		r.wg.Add(1)
		go r.batchGen()
	}
}

func (r *run) snapshot() counters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		at:        time.Now(),
		delivered: r.delivered.Load(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		allocB:    ms.TotalAlloc,
		uplink:    r.w.uplinkBytes(),
	}
}

// execute runs the pass: warm-up, the measured window, drain, audit.
func (r *run) execute(warmup, measure time.Duration) (*passResult, error) {
	if r.tr != nil {
		r.tr.armed.Store(true)
	}
	r.startGenerators()
	time.Sleep(warmup)

	res := &passResult{}
	if r.tr != nil {
		res.windowFrom = r.tr.now()
	}
	r.measuring.Store(true)
	begin := r.snapshot()
	time.Sleep(measure)
	end := r.snapshot()
	r.measuring.Store(false)
	if r.tr != nil {
		res.windowTo = r.tr.now()
	}
	close(r.stop)
	r.wg.Wait()

	// Drain: everything published must reach the log and leave the outboxes.
	var published int64
	for _, p := range r.phones {
		p.mu.Lock()
		published += int64(len(p.pubAt))
		p.mu.Unlock()
	}
	for deadline := time.Now().Add(drainDeadline); time.Now().Before(deadline); {
		if r.delivered.Load() >= published && r.w.pending() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-r.w.scriptErrs:
		return nil, err
	default:
	}

	res.elapsed = end.at.Sub(begin.at)
	res.delivered = end.delivered - begin.delivered
	if res.delivered <= 0 {
		return nil, fmt.Errorf("%s: nothing delivered in the measured window", r.wl.name)
	}
	n := float64(res.delivered)
	res.deliveredPS = n / res.elapsed.Seconds()
	res.cpuUS = float64((end.cpu - begin.cpu).Microseconds()) / n
	res.allocs = float64(end.mallocs-begin.mallocs) / n
	res.allocBytes = float64(end.allocB-begin.allocB) / n
	res.uplinkBytes = float64(end.uplink-begin.uplink) / n

	r.audit(res, published)
	return res, nil
}

// audit checks exactly-once delivery per phone and gathers the latency
// distribution and the transport's own counters.
func (r *run) audit(res *passResult, published int64) {
	res.published = published
	var lat, late []float64
	for _, p := range r.phones {
		p.mu.Lock()
		for _, c := range p.seen {
			switch {
			case c == 0:
				res.lost++
			case c > 1:
				res.duplicated += int64(c - 1)
			}
		}
		res.violations += int64(p.violations)
		for _, d := range p.latencies {
			lat = append(lat, float64(d)/1e6)
		}
		for _, d := range p.lateness {
			late = append(late, float64(d)/1e6)
		}
		p.mu.Unlock()
	}
	res.stuck = int64(r.w.pending())
	sort.Float64s(lat)
	res.latP50MS = quantileSorted(lat, 0.5)
	res.latP90MS = quantileSorted(lat, 0.9)
	res.latP99MS = quantileSorted(lat, 0.99)
	sort.Float64s(late)
	res.genLateP50MS = quantileSorted(late, 0.5)
	res.genLateP99MS = quantileSorted(late, 0.99)

	var sent, flushes int
	for _, p := range r.w.phones {
		st := p.Endpoint().Stats()
		sent += st.MessagesSent
		flushes += st.Flushes
		res.retries += int64(st.Retries)
	}
	if flushes > 0 {
		res.msgsPerFl = float64(sent) / float64(flushes)
	}
	cst := r.w.col.Endpoint().Stats()
	res.retries += int64(cst.Retries)
	res.duplicates = int64(cst.Duplicates)
	res.reconnects = r.w.reconnects.Load()
}

// quantile sorts xs in place and returns its q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

// quantileSorted interpolates linearly between the two nearest ranks.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
