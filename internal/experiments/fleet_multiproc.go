package experiments

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"pogo/internal/fleet"
	"pogo/internal/obs"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// Multi-process fleet: FleetMultiproc forks (or is handed) cfg.Procs worker
// processes, each building and running only one contiguous global shard
// range [lo, hi) of the fleet. Workers meet the coordinator at every epoch
// barrier over a byte-framed pipe protocol; staged cross-process traffic
// rides the same envelope codec devices use on the wire
// (transport.AppendWireBatch), so inter-process bytes stay on the audited
// format. Because each worker engine merges sorted(local ∪ inbound) with the
// same (deliver-at, sender, sender-seq) content key a single process sorts
// the global staged set by, a seed yields a byte-identical delivery log at
// any (shards × processes) split — the scenario suite pins exactly that.
//
// Frame format, both directions: [1 type byte][uvarint length][payload].
//
//	'C' coordinator → worker  JSON fleetWorkerBoot (config + shard range)
//	'R' worker → coordinator  empty; the worker's world is built
//	'B' worker → coordinator  barrier: now-offset, delivered, pending,
//	                          then length-prefixed envelopes of
//	                          outbound staged traffic (one per sender run)
//	'M' coordinator → worker  stop byte, then this worker's inbound staged
//	                          traffic as length-prefixed envelopes
//	'L' worker → coordinator  one per local shard: compact delivery log
//	'F' worker → coordinator  JSON fleetWorkerFinal (stats, rusage, heap)
const (
	fleetFrameBoot    = byte('C')
	fleetFrameReady   = byte('R')
	fleetFrameBarrier = byte('B')
	fleetFrameMerge   = byte('M')
	fleetFrameLog     = byte('L')
	fleetFrameFinal   = byte('F')
)

// fleetWorkerEnv marks a process as a fleet worker; MaybeFleetWorker checks
// it before the hosting binary does anything else.
const fleetWorkerEnv = "POGO_FLEET_WORKER"

// fleetWorkerBoot is the 'C' payload.
type fleetWorkerBoot struct {
	Cfg    FleetConfig `json:"cfg"`
	Lo     int         `json:"lo"`
	Hi     int         `json:"hi"`
	Worker int         `json:"worker"`
}

// fleetWorkerFinal is the 'F' payload: everything the coordinator folds into
// the aggregate FleetResult.
type fleetWorkerFinal struct {
	Epochs      int     `json:"epochs"`
	Events      int64   `json:"events"`
	Fabric      int64   `json:"fabric"`
	Cross       int64   `json:"cross"`
	Undrained   int     `json:"undrained"`
	OwnedPhones int     `json:"owned_phones"`
	BuildBytes  uint64  `json:"build_bytes"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	Mallocs     uint64  `json:"mallocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

func fleetAppendUv(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func fleetWriteFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	if _, err := w.Write(tmp[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// fleetFrameMax bounds a frame so a corrupted length can't OOM the reader.
// The largest legitimate frames are 100k-phone shard logs (tens of MB).
const fleetFrameMax = 1 << 30

func fleetReadFrame(r *bufio.Reader, want byte) ([]byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("fleet ipc: got frame %q, want %q", typ, want)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > fleetFrameMax {
		return nil, fmt.Errorf("fleet ipc: frame %q claims %d bytes", typ, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// fleetStagedCodec converts between fleet.Staged slices and length-prefixed
// envelope runs, reusing its scratch across barriers. Deliver-at
// instants travel as offsets from the barrier instant in the envelope ID
// field (always in (0, Lookahead], so one or two varint bytes).
type fleetStagedCodec struct {
	envBuf []byte
	items  []transport.WireItem
}

func (c *fleetStagedCodec) appendStaged(dst []byte, now time.Time, staged []fleet.Staged) []byte {
	for i := 0; i < len(staged); {
		from := staged[i].From
		c.items = c.items[:0]
		j := i
		for ; j < len(staged) && staged[j].From == from; j++ {
			m := &staged[j]
			c.items = append(c.items, transport.WireItem{
				ID:      uint64(m.At.Sub(now)),
				Seq:     m.Seq,
				Channel: m.To,
				Body:    m.Payload,
			})
		}
		c.envBuf = transport.AppendWireBatch(c.envBuf[:0], from, c.items)
		dst = fleetAppendUv(dst, uint64(len(c.envBuf)))
		dst = append(dst, c.envBuf...)
		i = j
	}
	return dst
}

// decodeStaged parses length-prefixed envelopes appended by appendStaged.
// Payload bytes alias data, which must stay reachable until the messages are
// delivered (the callers pass freshly read frame buffers and let the GC
// decide).
func (c *fleetStagedCodec) decodeStaged(data []byte, now time.Time, dst []fleet.Staged) ([]fleet.Staged, error) {
	for len(data) > 0 {
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return nil, fmt.Errorf("fleet ipc: truncated staged envelope")
		}
		frame := data[sz : sz+int(n)]
		data = data[sz+int(n):]
		from, items, err := transport.DecodeWireBatch(frame, c.items[:0])
		if err != nil {
			return nil, fmt.Errorf("fleet ipc: staged envelope: %w", err)
		}
		c.items = items
		for k := range items {
			it := &items[k]
			dst = append(dst, fleet.Staged{
				At:      now.Add(time.Duration(it.ID)),
				From:    from,
				To:      it.Channel,
				Seq:     it.Seq,
				Payload: it.Body,
			})
		}
	}
	return dst, nil
}

// FleetSpawner starts worker number `worker` and returns its pipe ends plus
// a wait function reporting the worker's exit. ExecFleetSpawner re-executes
// the current binary; PipeFleetSpawner runs the worker in-process (for
// tests, including under -race).
type FleetSpawner func(worker int) (in io.WriteCloser, out io.Reader, wait func() error, err error)

// ExecFleetSpawner spawns workers by re-executing the current binary with
// POGO_FLEET_WORKER set. The hosting main (or TestMain) must call
// MaybeFleetWorker before doing anything else.
func ExecFleetSpawner() FleetSpawner {
	return func(worker int) (io.WriteCloser, io.Reader, func() error, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fleetWorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, nil, nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, nil, nil, err
		}
		return in, out, cmd.Wait, nil
	}
}

// PipeFleetSpawner serves each worker on a goroutine over synchronous pipes:
// the full protocol minus process isolation. Tests use it to exercise the
// multi-process path deterministically under -race.
func PipeFleetSpawner() FleetSpawner {
	return func(worker int) (io.WriteCloser, io.Reader, func() error, error) {
		bootR, bootW := io.Pipe()
		resR, resW := io.Pipe()
		errc := make(chan error, 1)
		go func() {
			err := FleetWorkerServe(bootR, resW)
			if err != nil {
				resW.CloseWithError(err)
				bootR.CloseWithError(err)
			} else {
				resW.Close()
			}
			errc <- err
		}()
		return bootW, resR, func() error { return <-errc }, nil
	}
}

// MaybeFleetWorker turns this process into a fleet worker if it was spawned
// as one (POGO_FLEET_WORKER set): it serves the worker protocol on
// stdin/stdout and exits. Hosting binaries call it first thing in main;
// test packages that drive multi-process fleets call it from TestMain.
func MaybeFleetWorker() {
	if os.Getenv(fleetWorkerEnv) == "" {
		return
	}
	if err := FleetWorkerServe(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pogo fleet worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// fleetRingDump formats a worker's recent-delivery rings for error context.
func fleetRingDump(names *fleetNames, rings []*fleetRing) string {
	var b []byte
	for _, ring := range rings {
		for _, e := range ring.tail() {
			if len(b) > 0 {
				b = append(b, "; "...)
			}
			b = names.appendEntry(b, e)
		}
	}
	if len(b) == 0 {
		return "none"
	}
	return string(b)
}

// FleetWorkerServe runs one worker: read the boot config, build the owned
// shard range, trade staged traffic at every barrier, then stream the
// compact logs and final stats back. It returns once the coordinator stops
// the fleet (or on protocol failure, with recent-delivery context from the
// worker's diagnostic ring).
func FleetWorkerServe(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriterSize(w, 1<<16)
	payload, err := fleetReadFrame(br, fleetFrameBoot)
	if err != nil {
		return err
	}
	var boot fleetWorkerBoot
	if err := json.Unmarshal(payload, &boot); err != nil {
		return fmt.Errorf("fleet worker boot: %w", err)
	}
	cfg := boot.Cfg
	cfg.Obs = nil
	cfg.KeepLog = false
	fleetNormalize(&cfg)
	if boot.Lo < 0 || boot.Hi > cfg.Shards || boot.Lo >= boot.Hi {
		return fmt.Errorf("fleet worker %d: bad shard range [%d,%d) of %d", boot.Worker, boot.Lo, boot.Hi, cfg.Shards)
	}
	names := newFleetNames(&cfg)
	heap0 := obs.HeapLiveBytes()
	world := buildFleetWorld(&cfg, names, boot.Lo, boot.Hi, true)
	buildBytes := heapDelta(heap0)
	if err := fleetWriteFrame(bw, fleetFrameReady, nil); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var codec fleetStagedCodec
	var xerr error
	var encBuf []byte
	var inbound []fleet.Staged
	exchange := func(now time.Time, outbound []fleet.Staged) ([]fleet.Staged, bool) {
		encBuf = encBuf[:0]
		encBuf = fleetAppendUv(encBuf, uint64(now.Sub(world.start)))
		encBuf = fleetAppendUv(encBuf, uint64(world.delivered()))
		encBuf = fleetAppendUv(encBuf, uint64(world.pending()))
		encBuf = codec.appendStaged(encBuf, now, outbound)
		if xerr = fleetWriteFrame(bw, fleetFrameBarrier, encBuf); xerr != nil {
			return nil, true
		}
		if xerr = bw.Flush(); xerr != nil {
			return nil, true
		}
		var mp []byte
		if mp, xerr = fleetReadFrame(br, fleetFrameMerge); xerr != nil {
			return nil, true
		}
		if len(mp) == 0 {
			xerr = fmt.Errorf("fleet ipc: empty merge frame")
			return nil, true
		}
		stop := mp[0] != 0
		inbound = inbound[:0]
		if inbound, xerr = codec.decodeStaged(mp[1:], now, inbound); xerr != nil {
			return nil, true
		}
		return inbound, stop
	}
	stats := world.eng.RunExchanged(cfg.Window+cfg.DrainLimit, exchange, nil)
	if xerr != nil {
		return fmt.Errorf("fleet worker %d shards [%d,%d): %w (recent deliveries: %s)",
			boot.Worker, boot.Lo, boot.Hi, xerr, fleetRingDump(names, world.rings))
	}
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	for i, l := range world.logs {
		encBuf = encBuf[:0]
		encBuf = fleetAppendUv(encBuf, uint64(boot.Lo+i))
		encBuf = fleetAppendUv(encBuf, uint64(l.n))
		l.each(func(e fleetEntryC) {
			encBuf = fleetAppendUv(encBuf, uint64(uint32(e.atMs)))
			encBuf = fleetAppendUv(encBuf, uint64(uint32(e.recv)))
			encBuf = fleetAppendUv(encBuf, uint64(uint32(e.send)))
			encBuf = fleetAppendUv(encBuf, uint64(uint32(e.n)))
			encBuf = append(encBuf, e.ch)
		})
		if err := fleetWriteFrame(bw, fleetFrameLog, encBuf); err != nil {
			return err
		}
	}
	fin := fleetWorkerFinal{
		Epochs: stats.Epochs, Events: stats.Events,
		Fabric: stats.Fabric, Cross: stats.CrossShard,
		Undrained:   world.pending(),
		OwnedPhones: world.ownedPhones,
		BuildBytes:  buildBytes,
		CPUSeconds:  cpu,
		Mallocs:     ms1.Mallocs - ms0.Mallocs,
		AllocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
	}
	fj, err := json.Marshal(fin)
	if err != nil {
		return err
	}
	if err := fleetWriteFrame(bw, fleetFrameFinal, fj); err != nil {
		return err
	}
	return bw.Flush()
}

// fleetConn is one worker from the coordinator's side.
type fleetConn struct {
	in     io.WriteCloser
	bw     *bufio.Writer
	br     *bufio.Reader
	wait   func() error
	lo, hi int
}

func (c *fleetConn) kill() {
	if c == nil {
		return
	}
	if c.in != nil {
		c.in.Close()
	}
	if c.wait != nil {
		c.wait()
	}
}

// fleetDecodeLog parses an 'L' frame into (global shard, that shard's log).
func fleetDecodeLog(data []byte) (shard int, l *fleetLog, err error) {
	rd := data
	take := func() uint64 {
		v, sz := binary.Uvarint(rd)
		if sz <= 0 {
			err = fmt.Errorf("fleet ipc: truncated log frame")
			return 0
		}
		rd = rd[sz:]
		return v
	}
	shard = int(take())
	count := int(take())
	if err != nil || count < 0 || count > fleetFrameMax {
		return 0, nil, fmt.Errorf("fleet ipc: bad log frame header")
	}
	entries := make([]fleetEntryC, 0, count)
	for i := 0; i < count; i++ {
		var e fleetEntryC
		e.atMs = int32(uint32(take()))
		e.recv = int32(uint32(take()))
		e.send = int32(uint32(take()))
		e.n = int32(uint32(take()))
		if err != nil {
			return 0, nil, err
		}
		if len(rd) == 0 {
			return 0, nil, fmt.Errorf("fleet ipc: truncated log entry")
		}
		e.ch = rd[0]
		rd = rd[1:]
		entries = append(entries, e)
	}
	return shard, &fleetLog{chunks: [][]fleetEntryC{entries}, n: len(entries)}, nil
}

// FleetMultiproc runs the fleet split over cfg.Procs worker processes, each
// owning one contiguous shard range, and aggregates a FleetResult that is
// field-for-field comparable with Fleet's: same delivery guarantee, same
// content-ordered log hash (pinned identical to the in-process hash by the
// scenario suite), with cpu/heap/alloc figures summed across workers.
// spawn defaults to ExecFleetSpawner.
func FleetMultiproc(cfg FleetConfig, spawn FleetSpawner) (FleetResult, error) {
	fleetNormalize(&cfg)
	if cfg.Procs > cfg.Shards {
		cfg.Procs = cfg.Shards
	}
	if cfg.Procs <= 1 {
		return Fleet(cfg), nil
	}
	if spawn == nil {
		spawn = ExecFleetSpawner()
	}
	procs := cfg.Procs
	cpu0 := cpuSeconds()
	names := newFleetNames(&cfg)
	shardWorker := make([]int, cfg.Shards)
	conns := make([]*fleetConn, procs)
	defer func() {
		for _, c := range conns {
			c.kill()
		}
	}()
	for wk := 0; wk < procs; wk++ {
		lo, hi := wk*cfg.Shards/procs, (wk+1)*cfg.Shards/procs
		for s := lo; s < hi; s++ {
			shardWorker[s] = wk
		}
		in, out, wait, err := spawn(wk)
		if err != nil {
			return FleetResult{}, fmt.Errorf("fleet: spawn worker %d: %w", wk, err)
		}
		c := &fleetConn{in: in, bw: bufio.NewWriterSize(in, 1<<16), br: bufio.NewReaderSize(out, 1<<16), wait: wait, lo: lo, hi: hi}
		conns[wk] = c
		bootCfg := cfg
		bootCfg.Obs = nil
		bootCfg.KeepLog = false
		bj, err := json.Marshal(fleetWorkerBoot{Cfg: bootCfg, Lo: lo, Hi: hi, Worker: wk})
		if err != nil {
			return FleetResult{}, err
		}
		if err := fleetWriteFrame(c.bw, fleetFrameBoot, bj); err != nil {
			return FleetResult{}, fmt.Errorf("fleet: boot worker %d: %w", wk, err)
		}
		if err := c.bw.Flush(); err != nil {
			return FleetResult{}, fmt.Errorf("fleet: boot worker %d: %w", wk, err)
		}
	}
	for wk, c := range conns {
		if _, err := fleetReadFrame(c.br, fleetFrameReady); err != nil {
			return FleetResult{}, fmt.Errorf("fleet: worker %d never became ready: %w", wk, err)
		}
	}

	// Route a destination entity to the worker owning its shard.
	entityWorker := func(idx int32) int {
		if int(idx) < cfg.Phones {
			return shardWorker[names.phoneShard(int(idx))]
		}
		return shardWorker[names.collShard(int(idx)-cfg.Phones)]
	}

	expected := cfg.Phones * (cfg.MessagesPerPhone + cfg.CommandsPerPhone)
	start := vclock.SimEpoch
	endOff := uint64(cfg.Window + cfg.DrainLimit)
	var codec fleetStagedCodec
	var decoded []fleet.Staged
	inbound := make([][]fleet.Staged, procs)
	var mBuf []byte
	var ipcBytes, ipcMsgs int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall0 := time.Now()
	var nowOff uint64
	for {
		totDelivered, totPending := 0, 0
		for i := range inbound {
			inbound[i] = inbound[i][:0]
		}
		for wk, c := range conns {
			p, err := fleetReadFrame(c.br, fleetFrameBarrier)
			if err != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d barrier: %w", wk, err)
			}
			rd := p
			var hdr [3]uint64
			for i := range hdr {
				v, sz := binary.Uvarint(rd)
				if sz <= 0 {
					return FleetResult{}, fmt.Errorf("fleet: worker %d: short barrier header", wk)
				}
				hdr[i], rd = v, rd[sz:]
			}
			if wk == 0 {
				nowOff = hdr[0]
			} else if hdr[0] != nowOff {
				return FleetResult{}, fmt.Errorf("fleet: workers disagree on barrier instant (%d vs %d ns)", hdr[0], nowOff)
			}
			totDelivered += int(hdr[1])
			totPending += int(hdr[2])
			now := start.Add(time.Duration(nowOff))
			decoded, err = codec.decodeStaged(rd, now, decoded[:0])
			if err != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d staged: %w", wk, err)
			}
			ipcBytes += int64(len(p))
			ipcMsgs += int64(len(decoded))
			for _, m := range decoded {
				di := names.lookup(m.To)
				if di < 0 {
					continue // unknown destination: dropped, as in-process merge would
				}
				inbound[entityWorker(di)] = append(inbound[entityWorker(di)], m)
			}
		}
		stop := (totDelivered >= expected && totPending == 0) || nowOff >= endOff
		now := start.Add(time.Duration(nowOff))
		for wk, c := range conns {
			mBuf = mBuf[:0]
			if stop {
				mBuf = append(mBuf, 1)
			} else {
				mBuf = append(mBuf, 0)
			}
			mBuf = codec.appendStaged(mBuf, now, inbound[wk])
			if err := fleetWriteFrame(c.bw, fleetFrameMerge, mBuf); err != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d merge: %w", wk, err)
			}
			if err := c.bw.Flush(); err != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d merge: %w", wk, err)
			}
			ipcBytes += int64(len(mBuf))
		}
		if stop {
			break
		}
	}
	wall := time.Since(wall0)
	runtime.ReadMemStats(&ms1)

	logs := make([]*fleetLog, cfg.Shards)
	finals := make([]fleetWorkerFinal, procs)
	for wk, c := range conns {
		for s := c.lo; s < c.hi; s++ {
			p, err := fleetReadFrame(c.br, fleetFrameLog)
			if err != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d log: %w", wk, err)
			}
			g, l, err := fleetDecodeLog(p)
			if err != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d log: %w", wk, err)
			}
			if g < c.lo || g >= c.hi || logs[g] != nil {
				return FleetResult{}, fmt.Errorf("fleet: worker %d sent log for shard %d outside [%d,%d)", wk, g, c.lo, c.hi)
			}
			logs[g] = l
		}
		p, err := fleetReadFrame(c.br, fleetFrameFinal)
		if err != nil {
			return FleetResult{}, fmt.Errorf("fleet: worker %d final: %w", wk, err)
		}
		if err := json.Unmarshal(p, &finals[wk]); err != nil {
			return FleetResult{}, fmt.Errorf("fleet: worker %d final: %w", wk, err)
		}
		c.in.Close()
		if err := c.wait(); err != nil {
			return FleetResult{}, fmt.Errorf("fleet: worker %d exited: %w", wk, err)
		}
		c.wait, c.in = nil, nil
	}

	seal := fleetSealLog(&cfg, names, logs, cfg.KeepLog)
	res := FleetResult{
		Seed: cfg.Seed, Phones: cfg.Phones, Collectors: cfg.Collectors,
		Shards: cfg.Shards, Procs: procs,
		Expected: expected, Delivered: seal.delivered,
		Lost: seal.lost, Duplicated: seal.dup, OutOfOrder: seal.ooo,
		LogSHA256: seal.sha, Log: seal.log,
	}
	var buildBytes, mallocs, allocBytes uint64
	for wk, fin := range finals {
		res.Undrained += fin.Undrained
		res.Events += fin.Events
		res.FabricMessages += fin.Fabric
		res.CrossShard += fin.Cross
		if fin.Epochs > res.Epochs {
			res.Epochs = fin.Epochs
		}
		buildBytes += fin.BuildBytes
		mallocs += fin.Mallocs
		allocBytes += fin.AllocBytes
		res.WorkerCPUSeconds = append(res.WorkerCPUSeconds, fin.CPUSeconds)
		res.CPUSeconds += fin.CPUSeconds
		_ = wk
	}
	mallocs += ms1.Mallocs - ms0.Mallocs
	allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	res.CPUSeconds += cpuSeconds() - cpu0
	res.SimSeconds = time.Duration(nowOff).Seconds()
	res.WallSeconds = wall.Seconds()
	if res.WallSeconds > 0 {
		res.EventsPerSec = float64(res.Events) / res.WallSeconds
		res.DeliveriesPerSec = float64(res.Delivered) / res.WallSeconds
	}
	if res.Delivered > 0 {
		res.AllocsPerDelivery = float64(mallocs) / float64(res.Delivered)
		res.BytesPerDelivery = float64(allocBytes) / float64(res.Delivered)
	}
	res.BytesPerPhone = float64(buildBytes) / float64(cfg.Phones)
	if cfg.Obs != nil {
		cfg.Obs.Counter("fleet_ipc_bytes_total").Add(ipcBytes)
		cfg.Obs.Counter("fleet_ipc_staged_total").Add(ipcMsgs)
		cfg.Obs.Gauge("fleet_build_heap_bytes").Set(float64(buildBytes))
		cfg.Obs.Gauge("fleet_bytes_per_phone").Set(res.BytesPerPhone)
	}
	return res, nil
}
