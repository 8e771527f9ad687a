package main

import (
	"fmt"
	"math/rand"

	"pogo/internal/core"
	"pogo/internal/msg"
	"pogo/internal/script/scripts"
)

// loopMode is how the generator decides when to publish the next message.
type loopMode int

const (
	// closedLoop keeps a fixed number of messages outstanding per phone: a
	// slow system receives less load, so the figure of merit is throughput.
	closedLoop loopMode = iota
	// openLoop publishes on a fixed schedule regardless of progress and
	// times each message from the instant it was due.
	openLoop
	// batchLoop buffers a whole round per phone, then flushes and waits for
	// the round to be logged and acknowledged (the §4.7 buffered path).
	batchLoop
)

// Channel and log names shared by the scripts below and the harness.
const (
	sampleChannel = "sample"
	scanChannel   = "wifi-scan"
	scansChannel  = "scans"
	sinkLog       = "sink"
)

// sinkJS is the collector script of the stream_* and batch_drain workloads:
// one logTo per message, so script work stays a small share. Every log line
// starts "<origin> <sequence>", which is what the audit parses.
const sinkJS = `setDescription('bench sink: one log line per sample');
subscribe('` + sampleChannel + `', function (m, origin) {
  logTo('` + sinkLog + `', origin + ' ' + m.n);
});`

// scanSinkJS is the collector script of scan_pipeline: it serialises every
// sanitised scan, so the msg codec and PogoScript do most of the work.
const scanSinkJS = `setDescription('bench sink: one JSON line per sanitised scan');
subscribe('` + scansChannel + `', function (m, origin) {
  logTo('` + sinkLog + `', origin + ' ' + m.t + ' ' + json(m));
});`

// workload is one traffic shape. The generator publishes corpus messages on
// channel into each phone's per-collector context broker, stamping seqKey
// with the per-phone sequence number; the collector script logs one line
// per message to sinkLog.
type workload struct {
	name string
	why  string

	mode   loopMode
	window int     // closedLoop: outstanding per phone; batchLoop: round size per phone
	rate   float64 // openLoop: messages per second over all phones

	flush       core.FlushPolicy // the phones' policy; the collector is always FlushImmediate
	channel     string
	seqKey      string
	wireChannel string // the channel that crosses the network (what the collector subscribes to)
	wireSeqKey  string // the key carrying the sequence number in wireChannel's messages
	collectorJS string
	phoneScript string // name of a library script deployed to the phones, "" for none
	corpus      func(rng *rand.Rand) []msg.Map
}

// corpusSize is the number of distinct messages per phone; the generator
// cycles through them.
const corpusSize = 512

var workloads = []*workload{
	{
		name: "stream_sat",
		why:  "closed loop, 64 small messages outstanding per phone: per-message outbox, flush, framing, socket and ack overhead dominates",
		mode: closedLoop, window: 64, flush: core.FlushImmediate,
		channel: sampleChannel, seqKey: "n", wireChannel: sampleChannel, wireSeqKey: "n",
		collectorJS: sinkJS, corpus: sampleCorpus,
	},
	{
		name: "stream_paced",
		why:  "open loop, same messages at a fixed 6000/s timed from their due instant: the same layers read for latency, so batching that delays shows",
		mode: openLoop, rate: 6000, flush: core.FlushImmediate,
		channel: sampleChannel, seqKey: "n", wireChannel: sampleChannel, wireSeqKey: "n",
		collectorJS: sinkJS, corpus: sampleCorpus,
	},
	{
		name: "scan_pipeline",
		why:  "closed loop, 20-AP Wi-Fi scans through scan.js on the phone and a json() logger on the collector: PogoScript and the msg codec dominate",
		mode: closedLoop, window: 16, flush: core.FlushImmediate,
		channel: scanChannel, seqKey: "timestamp", wireChannel: scansChannel, wireSeqKey: "t",
		collectorJS: scanSinkJS, phoneScript: "scan.js", corpus: scanCorpus,
	},
	{
		name: "batch_drain",
		why:  "rounds of 200 buffered messages per phone then one Flush: the outbox and transport used in bulk (one envelope, one ack set, compaction)",
		mode: batchLoop, window: batchRound, flush: core.FlushManual,
		channel: sampleChannel, seqKey: "n", wireChannel: sampleChannel, wireSeqKey: "n",
		collectorJS: sinkJS, corpus: sampleCorpus,
	},
}

// batchRound is batch_drain's round size per phone. It stays below the 241
// messages one flush can carry over real XMPP at this commit (see
// `-probe backlog` and README.md): a bigger round never drains.
const batchRound = 200

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// phoneScriptSource returns the source of the script deployed to the phones;
// only workloads with a phoneScript have one.
func (w *workload) phoneScriptSource() string { return scripts.MustSource(w.phoneScript) }

// sampleCorpus generates small battery-style samples, ≈80–115 B on the wire
// once enveloped. "n" is overwritten with the sequence number at publish.
func sampleCorpus(rng *rand.Rand) []msg.Map {
	out := make([]msg.Map, corpusSize)
	for i := range out {
		out[i] = msg.Map{
			"n":        float64(0),
			"level":    float64(rng.Intn(101)),
			"voltage":  3.5 + float64(rng.Intn(700))/1000,
			"charging": rng.Intn(4) == 0,
		}
	}
	return out
}

// scanCorpus generates 20-AP Wi-Fi scans in the shape the wifi-scan sensor
// publishes. About a tenth of the APs are locally administered (scan.js
// drops them); every scan keeps at least one usable AP so each publication
// yields exactly one 'scans' message. "timestamp" carries the sequence.
func scanCorpus(rng *rand.Rand) []msg.Map {
	const apsPerScan = 20
	// A phone sees the same neighbourhood again and again: draw the APs of
	// each scan from a pool a few times the scan size.
	pool := make([]string, 4*apsPerScan)
	for i := range pool {
		pool[i] = fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			rng.Intn(256)&^2, rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256))
	}
	out := make([]msg.Map, corpusSize)
	for i := range out {
		aps := make([]msg.Value, apsPerScan)
		for j, p := range rng.Perm(len(pool))[:apsPerScan] {
			aps[j] = msg.Map{
				"bssid": pool[p],
				"ssid":  fmt.Sprintf("net-%d", p),
				"rssi":  float64(-100 + rng.Intn(60)),
				"local": j > 0 && rng.Intn(10) == 0,
			}
		}
		out[i] = msg.Map{"timestamp": float64(0), "aps": aps}
	}
	return out
}

// phoneCorpus returns phone i's corpus for a seed: the same (workload, seed,
// phone) always yields byte-identical messages.
func (w *workload) phoneCorpus(seed int64, phone int) []msg.Map {
	return w.corpus(rand.New(rand.NewSource(seed*1000 + int64(phone))))
}
