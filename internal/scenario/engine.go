package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pogo/internal/experiments"
	"pogo/internal/obs"
	"pogo/internal/script/scripts"
)

// Runner executes scenario archives. The zero value runs with defaults;
// Update regenerates golden sections in place of comparing them.
type Runner struct {
	Short  bool // honor [short]/[!short] condition prefixes
	Update bool // match_file rewrites goldens instead of comparing
}

// Result reports one archive run.
type Result struct {
	Name       string
	Transcript []byte // deterministic run log: identical bytes for identical seeds
	Skipped    bool
	SkipReason string
	Updated    bool   // a golden section was rewritten under -update
	Archive    []byte // the re-serialized archive when Updated
}

// RunFile loads and runs one scenario file.
func (r *Runner) RunFile(pathname string) (*Result, error) {
	data, err := os.ReadFile(pathname)
	if err != nil {
		return nil, err
	}
	return r.run(pathname, data)
}

// errSkip aborts a run without failing it.
type errSkip struct{ reason string }

func (e errSkip) Error() string { return "skip: " + e.reason }

// run executes the archive's script. The returned Result is non-nil even on
// error, carrying the transcript up to the failure for diagnosis.
func (r *Runner) run(name string, data []byte) (*Result, error) {
	arch := ParseTxtar(data)
	cmds, err := parseScript(name, arch.Comment)
	if err != nil {
		return &Result{Name: name}, err
	}
	st := &state{r: r, name: name, arch: arch, reg: obs.NewRegistry(), outputs: map[string][]byte{}}
	defer st.close()
	res := &Result{Name: name}
	for _, c := range cmds {
		run := true
		for _, cond := range c.Conds {
			ok, err := st.evalCond(c, cond)
			if err != nil {
				res.Transcript = st.transcript.Bytes()
				return res, err
			}
			if !ok {
				run = false
				break
			}
		}
		if !run {
			st.printf("~ %s\n", c.Raw)
			continue
		}
		st.printf("> %s\n", c.Raw)
		err := st.dispatch(c)
		if skip, ok := err.(errSkip); ok {
			res.Skipped, res.SkipReason = true, skip.reason
			break
		}
		if c.Neg {
			if err == nil {
				res.Transcript = st.transcript.Bytes()
				return res, c.errf("succeeded unexpectedly (negated with !)")
			}
			st.printf("[expected failure] %v\n", err)
			err = nil
		}
		if err != nil {
			res.Transcript = st.transcript.Bytes()
			return res, err
		}
	}
	res.Transcript = st.transcript.Bytes()
	if st.updated {
		res.Updated = true
		res.Archive = formatTxtar(st.arch)
	}
	return res, nil
}

// state is the mutable execution context of one archive run.
type state struct {
	r          *Runner
	name       string
	arch       *Archive
	transcript bytes.Buffer
	outputs    map[string][]byte // named artifacts for match_file / expect_output_sha256
	reg        *obs.Registry
	mode       string
	chaos      *chaosState
	fleetCfg   *experiments.FleetConfig
	fleetRes   *experiments.FleetResult
	pogo       *pogoState
	updated    bool
}

func (st *state) close() {
	if st.pogo != nil {
		st.pogo.close()
		st.pogo = nil
	}
}

func (st *state) printf(format string, args ...any) {
	fmt.Fprintf(&st.transcript, format, args...)
}

// evalCond evaluates one [cond] prefix. Unknown conditions are errors, not
// skips — a typo must not silently disable an assertion.
func (st *state) evalCond(c command, cond string) (bool, error) {
	neg := strings.HasPrefix(cond, "!")
	name := strings.TrimPrefix(cond, "!")
	var v bool
	switch {
	case name == "short":
		v = st.r.Short
	case name == "update":
		v = st.r.Update
	case name == "race":
		v = raceEnabled
	case name == "chaos":
		v = st.mode == modeChaos
	case name == "fleet":
		v = st.mode == modeFleet
	case name == "pogo":
		v = st.mode == modePogo
	case strings.HasPrefix(name, "shards:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "shards:"))
		if err != nil {
			return false, c.errf("bad condition %q: shard count is not a number", cond)
		}
		v = st.fleetCfg != nil && st.fleetCfg.Shards == n
	default:
		return false, c.errf("unknown condition %q", cond)
	}
	if neg {
		v = !v
	}
	return v, nil
}

func (st *state) dispatch(c command) error {
	switch c.Name {
	case "skip":
		return errSkip{reason: strings.Join(c.Args, " ")}
	case "world_up":
		return st.cmdWorldUp(c)
	case "world_down":
		return st.cmdWorldDown(c)
	case "pogo_up":
		return st.cmdPogoUp(c)
	case "run":
		return st.cmdRun(c)
	case "rounds":
		return st.cmdRounds(c)
	case "advance":
		return st.cmdAdvance(c)
	case "flush":
		return st.cmdFlush(c)
	case "drain":
		return st.cmdDrain(c)
	case "publish":
		return st.cmdPublish(c)
	case "kill":
		return st.cmdKillReboot(c, true)
	case "reboot":
		return st.cmdKillReboot(c, false)
	case "inject_fault":
		return st.cmdInjectFault(c)
	case "heal":
		return st.cmdHeal(c)
	case "crowd":
		return st.cmdCrowd(c)
	case "deploy":
		return st.cmdDeploy(c, false)
	case "deploy_local":
		return st.cmdDeploy(c, true)
	case "subscribe":
		return st.cmdSubscribe(c)
	case "offline":
		return st.cmdConnectivity(c, false)
	case "online":
		return st.cmdConnectivity(c, true)
	case "table3":
		return st.cmdTable3(c)
	case "table4":
		return st.cmdTable4(c)
	case "save_log":
		return st.cmdSaveLog(c)
	case "match_file":
		return st.cmdMatchFile(c)
	case "expect_delivered":
		return st.cmdExpectDelivered(c)
	case "expect_stat":
		return st.cmdExpectStat(c)
	case "expect_metric":
		return st.cmdExpectMetric(c)
	case "expect_log_sha256":
		return st.cmdExpectLogSHA(c)
	case "expect_output_sha256":
		return st.cmdExpectOutputSHA(c)
	case "expect_log_count":
		return st.cmdExpectLogCount(c)
	case "audit_exactly_once":
		return st.cmdAudit(c)
	case "expect_alert":
		return st.cmdExpectAlert(c, true)
	case "expect_no_alert":
		return st.cmdExpectAlert(c, false)
	case "save_alert_log":
		return st.cmdSaveAlertLog(c)
	}
	return c.errf("unknown command")
}

// needChaos / needFleetRun / needPogo gate mode-specific commands.
func (st *state) needChaos(c command) (*chaosState, error) {
	if st.mode != modeChaos || st.chaos == nil {
		return nil, c.errf("needs a chaos world (world_up <phones> 1 ... first)")
	}
	return st.chaos, nil
}

func (st *state) needPogo(c command) (*pogoState, error) {
	if st.mode != modePogo || st.pogo == nil {
		return nil, c.errf("needs a pogo world (pogo_up first)")
	}
	return st.pogo, nil
}

// --- world construction ---

func (st *state) cmdWorldUp(c command) error {
	if st.mode != modeNone {
		return c.errf("world already up (mode %s)", st.mode)
	}
	pos, kv, err := kvArgs(c, 2, "seed", "shards", "msgs", "cmds", "window", "step",
		"drop", "dup", "corrupt", "delay", "mean_up", "mean_down",
		"partition_frac", "retry", "drain_iters")
	if err != nil {
		return err
	}
	phones, err := strconv.Atoi(pos[0])
	if err != nil || phones < 1 {
		return c.errf("bad phone count %q", pos[0])
	}
	collectors, err := strconv.Atoi(pos[1])
	if err != nil || collectors < 1 {
		return c.errf("bad collector count %q", pos[1])
	}
	seedN, err := kvInt(c, kv, "seed", 1)
	if err != nil {
		return err
	}
	shards, err := kvInt(c, kv, "shards", 0)
	if err != nil {
		return err
	}
	msgs, err := kvInt(c, kv, "msgs", 0)
	if err != nil {
		return err
	}
	cmdsPer, err := kvInt(c, kv, "cmds", 0)
	if err != nil {
		return err
	}
	window, err := kvDuration(c, kv, "window", 0)
	if err != nil {
		return err
	}
	step, err := kvDuration(c, kv, "step", 0)
	if err != nil {
		return err
	}
	drop, err := kvFloat(c, kv, "drop", 0)
	if err != nil {
		return err
	}
	dup, err := kvFloat(c, kv, "dup", 0)
	if err != nil {
		return err
	}
	corrupt, err := kvFloat(c, kv, "corrupt", 0)
	if err != nil {
		return err
	}
	delay, err := kvDuration(c, kv, "delay", 0)
	if err != nil {
		return err
	}
	meanUp, err := kvDuration(c, kv, "mean_up", 0)
	if err != nil {
		return err
	}
	meanDown, err := kvDuration(c, kv, "mean_down", 0)
	if err != nil {
		return err
	}
	partFrac, err := kvFloat(c, kv, "partition_frac", 0)
	if err != nil {
		return err
	}
	retry, err := kvDuration(c, kv, "retry", 0)
	if err != nil {
		return err
	}
	drainIters, err := kvInt(c, kv, "drain_iters", 0)
	if err != nil {
		return err
	}

	if shards > 0 {
		cfg := experiments.FleetConfig{
			Seed: int64(seedN), Phones: phones, Collectors: collectors, Shards: shards,
			MessagesPerPhone: msgs, CommandsPerPhone: cmdsPer,
			Window: window, Step: step,
			Drop: drop, Duplicate: dup, Corrupt: corrupt, MaxDelay: delay,
			RetryAfter: retry,
			// Scenarios assert on delivery_log lines, so always materialize
			// the textual log; scripted worlds are small.
			KeepLog: true,
			Obs:     st.reg,
		}
		if meanUp > 0 || meanDown > 0 || partFrac > 0 || drainIters != 0 {
			return c.errf("churn/partition/drain options are chaos-only (fleet faults are per-entity)")
		}
		st.fleetCfg = &cfg
		st.mode = modeFleet
		st.printf("world: fleet phones=%d collectors=%d shards=%d seed=%d\n",
			phones, collectors, shards, seedN)
		return nil
	}
	if collectors != 1 {
		return c.errf("chaos world has exactly 1 collector (got %d); pass shards=K for a fleet", collectors)
	}
	st.chaos = newChaosState(experiments.ChaosConfig{
		Seed: int64(seedN), Phones: phones,
		MessagesPerPhone: msgs, CommandsPerPhone: cmdsPer,
		Window: window, Step: step,
		Drop: drop, Duplicate: dup, Corrupt: corrupt, MaxDelay: delay,
		MeanUp: meanUp, MeanDown: meanDown, PartitionFrac: partFrac,
		RetryAfter: retry, DrainIters: drainIters, Obs: st.reg,
	})
	st.mode = modeChaos
	st.printf("world: chaos phones=%d seed=%d rounds=%d\n",
		phones, seedN, st.chaos.w.Rounds())
	return nil
}

// cmdWorldDown tears the active world down so the archive can bring up the
// next one (the ported chaos matrix runs three fault levels in one file).
// The registry, outputs, and transcript persist across worlds.
func (st *state) cmdWorldDown(c command) error {
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	if st.mode == modeNone {
		return c.errf("no world is up")
	}
	if st.pogo != nil {
		st.pogo.close()
	}
	st.mode, st.chaos, st.fleetCfg, st.fleetRes, st.pogo = modeNone, nil, nil, nil, nil
	st.printf("world: down\n")
	return nil
}

func (st *state) cmdPogoUp(c command) error {
	if st.mode != modeNone {
		return c.errf("world already up (mode %s)", st.mode)
	}
	_, kv, err := kvArgs(c, 0, "carrier", "flush_every")
	if err != nil {
		return err
	}
	carrier := radioDefaultCarrier()
	if name, ok := kv["carrier"]; ok {
		carrier, err = carrierByName(name)
		if err != nil {
			return c.errf("%v", err)
		}
	}
	flushEvery, err := kvDuration(c, kv, "flush_every", 0)
	if err != nil {
		return err
	}
	p, err := newPogoState(st.reg, carrier, flushEvery)
	if err != nil {
		return c.errf("%v", err)
	}
	st.pogo = p
	st.mode = modePogo
	st.printf("world: pogo carrier=%s nodes=[collector phone]\n", carrier.Name)
	return nil
}

// --- simulation driving ---

func (st *state) cmdRun(c command) error {
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	switch st.mode {
	case modeChaos:
		cs := st.chaos
		for ; cs.next < cs.w.Rounds(); cs.next++ {
			cs.w.RunRound(cs.next)
		}
		cs.w.Drain()
		res := cs.w.Result(st.name)
		st.printf("run: delivered=%d/%d lost=%d dup=%d ooo=%d undrained=%d retries=%d\n",
			res.Delivered, res.Expected, res.Lost, res.Duplicated, res.OutOfOrder,
			res.Undrained, res.Retries)
		st.printf("log sha256=%s\n", res.LogSHA256)
		return nil
	case modeFleet:
		if st.fleetRes != nil {
			return c.errf("fleet already ran")
		}
		res := experiments.Fleet(*st.fleetCfg)
		st.fleetRes = &res
		// Wall-clock and allocation figures are real-time measurements —
		// deliberately left out of the transcript, which must be
		// byte-identical across runs.
		st.printf("run: delivered=%d/%d lost=%d dup=%d ooo=%d undrained=%d epochs=%d\n",
			res.Delivered, res.Expected, res.Lost, res.Duplicated, res.OutOfOrder,
			res.Undrained, res.Epochs)
		st.printf("log sha256=%s\n", res.LogSHA256)
		return nil
	}
	return c.errf("needs a chaos or fleet world")
}

func (st *state) cmdRounds(c command) error {
	cs, err := st.needChaos(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 1 {
		return c.errf("want: rounds <n>")
	}
	n, err := strconv.Atoi(c.Args[0])
	if err != nil || n < 1 {
		return c.errf("bad round count %q", c.Args[0])
	}
	for i := 0; i < n && cs.next < cs.w.Rounds(); i++ {
		cs.w.RunRound(cs.next)
		cs.next++
	}
	st.printf("rounds: at %d/%d\n", cs.next, cs.w.Rounds())
	return nil
}

func (st *state) cmdAdvance(c command) error {
	if len(c.Args) != 1 {
		return c.errf("want: advance <duration>")
	}
	d, err := time.ParseDuration(c.Args[0])
	if err != nil || d <= 0 {
		return c.errf("bad duration %q", c.Args[0])
	}
	switch st.mode {
	case modeChaos:
		st.chaos.w.Advance(d)
		return nil
	case modePogo:
		st.pogo.clk.Advance(d)
		return nil
	}
	return c.errf("needs a chaos or pogo world")
}

func (st *state) cmdFlush(c command) error {
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	switch st.mode {
	case modeChaos:
		st.chaos.w.FlushAll()
		return nil
	case modePogo:
		st.pogo.dev.Flush()
		st.pogo.col.Flush()
		return nil
	}
	return c.errf("needs a chaos or pogo world")
}

func (st *state) cmdDrain(c command) error {
	cs, err := st.needChaos(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	undrained := cs.w.Drain()
	st.printf("drain: undrained=%d\n", undrained)
	return nil
}

func (st *state) cmdPublish(c command) error {
	cs, err := st.needChaos(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 4 {
		return c.errf("want: publish <from> <to> <channel> <n>")
	}
	n, err := strconv.Atoi(c.Args[3])
	if err != nil {
		return c.errf("bad sequence number %q", c.Args[3])
	}
	if err := cs.w.Enqueue(c.Args[0], c.Args[1], c.Args[2], n); err != nil {
		return c.errf("%v", err)
	}
	return nil
}

func (st *state) cmdKillReboot(c command, kill bool) error {
	if len(c.Args) != 1 {
		return c.errf("want: %s <entity-glob>", c.Name)
	}
	switch st.mode {
	case modeChaos:
		cs := st.chaos
		names, err := cs.matchEntities(c.Args[0])
		if err != nil {
			return c.errf("%v", err)
		}
		n := 0
		for _, name := range names {
			f := cs.w.Fault(name)
			if f == nil {
				if len(names) == 1 {
					return c.errf("%s has no fault wrapper (the collector cannot churn)", name)
				}
				continue // glob swept up the collector; phones-only is intended
			}
			if kill {
				f.Disconnect()
			} else {
				f.Reconnect()
			}
			n++
		}
		st.printf("%s: %d entities\n", c.Name, n)
		return nil
	case modePogo:
		p := st.pogo
		if c.Args[0] != "phone" {
			return c.errf("pogo mode can only %s the phone", c.Name)
		}
		// Kill = pull connectivity; reboot = restore it. Full process reboot
		// is table4's domain; here the observable is offline buffering.
		if kill {
			p.conn.SetActive(radioInterfaceNone())
		} else {
			p.conn.SetActive(radioInterfaceCellular())
		}
		st.printf("%s: phone\n", c.Name)
		return nil
	}
	return c.errf("needs a chaos or pogo world")
}

func (st *state) cmdInjectFault(c command) error {
	cs, err := st.needChaos(c)
	if err != nil {
		return err
	}
	_, kv, err := kvArgs(c, 0, "drop", "dup", "corrupt", "delay", "partition")
	if err != nil {
		return err
	}
	if pair, ok := kv["partition"]; ok {
		parts := strings.Split(pair, ",")
		if len(parts) != 2 {
			return c.errf("partition wants two comma-separated entity globs, got %q", pair)
		}
		as, err := cs.matchEntities(parts[0])
		if err != nil {
			return c.errf("%v", err)
		}
		bs, err := cs.matchEntities(parts[1])
		if err != nil {
			return c.errf("%v", err)
		}
		n := 0
		for _, a := range as {
			for _, b := range bs {
				if a == b {
					continue
				}
				cs.w.Net().PartitionPair(a, b)
				n++
			}
		}
		st.printf("inject_fault: partitioned %d pairs\n", n)
	}
	mixChanged := false
	for _, k := range []string{"drop", "dup", "corrupt", "delay"} {
		if _, ok := kv[k]; ok {
			mixChanged = true
		}
	}
	if mixChanged {
		if cs.drop, err = kvFloat(c, kv, "drop", cs.drop); err != nil {
			return err
		}
		if cs.dup, err = kvFloat(c, kv, "dup", cs.dup); err != nil {
			return err
		}
		if cs.corrupt, err = kvFloat(c, kv, "corrupt", cs.corrupt); err != nil {
			return err
		}
		if cs.delay, err = kvDuration(c, kv, "delay", cs.delay); err != nil {
			return err
		}
		cs.w.Net().SetFaults(cs.drop, cs.dup, cs.corrupt, cs.delay)
		st.printf("inject_fault: drop=%s dup=%s corrupt=%s delay=%s\n",
			formatNum(cs.drop), formatNum(cs.dup), formatNum(cs.corrupt), cs.delay)
	}
	if !mixChanged && kv["partition"] == "" {
		return c.errf("nothing to inject (want drop=/dup=/corrupt=/delay= or partition=A,B)")
	}
	return nil
}

func (st *state) cmdHeal(c command) error {
	cs, err := st.needChaos(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	cs.w.Net().HealAll()
	return nil
}

func (st *state) cmdCrowd(c command) error {
	cs, err := st.needChaos(c)
	if err != nil {
		return err
	}
	pos, kv, err := kvArgs(c, 2, "seed", "at", "burst", "channel")
	if err != nil {
		return err
	}
	place := pos[0]
	users, err := strconv.Atoi(pos[1])
	if err != nil || users < 1 {
		return c.errf("bad user count %q", pos[1])
	}
	if users > cs.w.Config().Phones {
		return c.errf("crowd of %d users exceeds the world's %d phones", users, cs.w.Config().Phones)
	}
	seedN, err := kvInt(c, kv, "seed", int(cs.w.Config().Seed))
	if err != nil {
		return err
	}
	at, err := kvDuration(c, kv, "at", 9*time.Hour) // mid-morning: everyone is out
	if err != nil {
		return err
	}
	burst, err := kvInt(c, kv, "burst", 5)
	if err != nil {
		return err
	}
	channel := kv["channel"]
	if channel == "" {
		channel = "flash"
	}
	if channel == "upload" || channel == "cmd" {
		return c.errf("channel %q is reserved for scheduled traffic (the exactly-once audit would count crowd messages as duplicates)", channel)
	}
	members, err := crowdAt(int64(seedN), users, place, at)
	if err != nil {
		return c.errf("%v", err)
	}
	// Every phone whose user is dwelling at the place publishes a burst —
	// the flash crowd all lighting up the same cell at once.
	for _, i := range members {
		from := experiments.ChaosPhoneName(i)
		for j := 0; j < burst; j++ {
			if err := cs.w.Enqueue(from, experiments.ChaosCollectorName, channel, j); err != nil {
				return c.errf("%v", err)
			}
		}
	}
	cs.crowd = len(members)
	st.printf("crowd: %d/%d phones at %s, burst=%d on %q\n", len(members), users, place, burst, channel)
	return nil
}

// --- pogo-mode scripting ---

func (st *state) cmdDeploy(c command, local bool) error {
	p, err := st.needPogo(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 1 {
		return c.errf("want: %s <script.js>", c.Name)
	}
	name := c.Args[0]
	// Script source: an archive section wins (scenarios can carry bespoke
	// PogoScript), else the embedded script library.
	var source string
	if data, ok := st.arch.file(name); ok {
		source = string(data)
	} else {
		source, err = scripts.Source(name)
		if err != nil {
			return c.errf("no archive section %q and no library script: %v", name, err)
		}
	}
	if local {
		err = p.col.DeployLocal(name, source)
	} else {
		err = p.col.Deploy(name, source)
	}
	if err != nil {
		return c.errf("%v", err)
	}
	return nil
}

func (st *state) cmdSubscribe(c command) error {
	p, err := st.needPogo(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 1 {
		return c.errf("want: subscribe <channel>")
	}
	p.col.LocalContext().Broker().Subscribe(c.Args[0], nil, nil)
	return nil
}

func (st *state) cmdConnectivity(c command, online bool) error {
	p, err := st.needPogo(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	if online {
		p.conn.SetActive(radioInterfaceCellular())
	} else {
		p.conn.SetActive(radioInterfaceNone())
	}
	return nil
}

func (st *state) cmdExpectLogCount(c command) error {
	p, err := st.needPogo(c)
	if err != nil {
		return err
	}
	if len(c.Args) != 3 {
		return c.errf("want: expect_log_count <log> <op> <n>")
	}
	want, err := strconv.ParseFloat(c.Args[2], 64)
	if err != nil {
		return c.errf("bad count %q", c.Args[2])
	}
	have := float64(len(p.col.Logs().Lines(c.Args[0])))
	ok, err := cmpOp(c.Args[1], have, want)
	if err != nil {
		return c.errf("%v", err)
	}
	if !ok {
		return c.errf("log %q has %s lines, want %s %s",
			c.Args[0], formatNum(have), c.Args[1], formatNum(want))
	}
	return nil
}

// --- paper tables ---

func (st *state) cmdTable3(c command) error {
	if st.mode != modeNone {
		return c.errf("table3 is self-contained; run it before any world_up")
	}
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	rows := experiments.Table3Obs(st.reg)
	st.outputs["table3.txt"] = []byte(experiments.RenderTable3(rows))
	var acc bytes.Buffer
	obs.WriteAccountingCSV(&acc, st.reg.Ledger())
	st.outputs["accounting.csv"] = acc.Bytes()
	var ser bytes.Buffer
	obs.WriteSeriesCSV(&ser, st.reg.Series())
	st.outputs["timeseries.csv"] = ser.Bytes()
	st.printf("table3: %d carriers -> table3.txt accounting.csv timeseries.csv\n", len(rows))
	return nil
}

func (st *state) cmdTable4(c command) error {
	if st.mode != modeNone {
		return c.errf("table4 is self-contained; run it before any world_up")
	}
	_, kv, err := kvArgs(c, 0, "seed", "days")
	if err != nil {
		return err
	}
	seedN, err := kvInt(c, kv, "seed", 1)
	if err != nil {
		return err
	}
	days, err := kvInt(c, kv, "days", 1)
	if err != nil {
		return err
	}
	cfg := experiments.SmallTable4Config(int64(seedN), days)
	cfg.Obs = st.reg
	res, err := experiments.Table4(cfg)
	if err != nil {
		return c.errf("%v", err)
	}
	st.outputs["table4.txt"] = []byte(experiments.RenderTable4(res))
	st.printf("table4: %d sessions, %d scans, %d locations -> table4.txt\n",
		len(res.Rows), res.TotalScans, res.TotalPlaces)
	return nil
}

// --- artifacts and assertions ---

// delivery returns the active world's delivery audit: a chaos world's as it
// stands, a fleet's once it has run.
func (st *state) delivery(c command) (experiments.Delivery, error) {
	switch st.mode {
	case modeChaos:
		return st.chaos.w.Result(st.name).Delivery, nil
	case modeFleet:
		if st.fleetRes == nil {
			return experiments.Delivery{}, c.errf("fleet has not run yet")
		}
		return st.fleetRes.Delivery, nil
	}
	return experiments.Delivery{}, c.errf("needs a chaos or fleet world")
}

func (st *state) cmdSaveLog(c command) error {
	if len(c.Args) != 1 {
		return c.errf("want: save_log <name>")
	}
	d, err := st.delivery(c)
	if err != nil {
		return err
	}
	st.outputs[c.Args[0]] = []byte(strings.Join(d.Log, "\n") + "\n")
	st.printf("save_log: %s (%d lines)\n", c.Args[0], len(d.Log))
	return nil
}

func (st *state) cmdMatchFile(c command) error {
	if len(c.Args) != 1 {
		return c.errf("want: match_file <name>")
	}
	name := c.Args[0]
	out, ok := st.outputs[name]
	if !ok {
		return c.errf("no output %q produced yet (outputs come from table3/table4/save_log)", name)
	}
	if st.r.Update {
		st.arch.setFile(name, out)
		st.updated = true
		st.printf("match_file: updated %s (%d bytes)\n", name, len(out))
		return nil
	}
	want, ok := st.arch.file(name)
	if !ok {
		return c.errf("no golden section %q in the archive (run with -update to create it)", name)
	}
	if !bytes.Equal(fixNL(out), fixNL(want)) {
		return c.errf("%s differs from golden (%d vs %d bytes); rerun with -update after an intentional change\n%s",
			name, len(out), len(want), firstDiff(out, want))
	}
	st.printf("match_file: %s ok\n", name)
	return nil
}

// firstDiff renders the first differing line for the match_file error.
func firstDiff(got, want []byte) string {
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("first diff at line %d:\n  got:  %q\n  want: %q", i+1, g, w)
		}
	}
	return "contents equal after newline normalization"
}

// stat reads a named scalar from the active world: a mode-specific field,
// else one of the delivery audit's counts.
func (st *state) stat(c command, field string) (float64, error) {
	switch st.mode {
	case modeChaos:
		cs := st.chaos
		switch field {
		case "crowd":
			return float64(cs.crowd), nil
		case "pending":
			return float64(cs.w.Pending()), nil
		case "rounds":
			return float64(cs.w.Rounds()), nil
		}
		res := cs.w.Result(st.name)
		switch field {
		case "retries":
			return float64(res.Retries), nil
		case "corrupt_dropped":
			return float64(res.CorruptDropped), nil
		case "net_sent":
			return float64(res.NetSent), nil
		case "net_dropped":
			return float64(res.NetDropped), nil
		case "net_duplicated":
			return float64(res.NetDuplicated), nil
		case "net_corrupted":
			return float64(res.NetCorrupted), nil
		case "net_delayed":
			return float64(res.NetDelayed), nil
		case "partition_drops":
			return float64(res.PartitionDrops), nil
		case "disconnects":
			return float64(res.Disconnects), nil
		}
		return deliveryStat(c, res.Delivery, field)
	case modeFleet:
		if res := st.fleetRes; res != nil {
			switch field {
			case "shards":
				return float64(res.Shards), nil
			case "collectors":
				return float64(res.Collectors), nil
			case "epochs":
				return float64(res.Epochs), nil
			}
		}
	}
	d, err := st.delivery(c)
	if err != nil {
		return 0, err
	}
	return deliveryStat(c, d, field)
}

// deliveryStat reads one of a delivery audit's counts.
func deliveryStat(c command, d experiments.Delivery, field string) (float64, error) {
	switch field {
	case "expected":
		return float64(d.Expected), nil
	case "delivered":
		return float64(d.Delivered), nil
	case "lost":
		return float64(d.Lost), nil
	case "duplicated":
		return float64(d.Duplicated), nil
	case "out_of_order":
		return float64(d.OutOfOrder), nil
	case "undrained":
		return float64(d.Undrained), nil
	}
	return 0, c.errf("unknown stat %q", field)
}

func (st *state) cmdExpectStat(c command) error {
	if len(c.Args) != 3 {
		return c.errf("want: expect_stat <field> <op> <n>")
	}
	have, err := st.stat(c, c.Args[0])
	if err != nil {
		return err
	}
	want, err := strconv.ParseFloat(c.Args[2], 64)
	if err != nil {
		return c.errf("bad number %q", c.Args[2])
	}
	ok, err := cmpOp(c.Args[1], have, want)
	if err != nil {
		return c.errf("%v", err)
	}
	if !ok {
		return c.errf("%s = %s, want %s %s", c.Args[0], formatNum(have), c.Args[1], formatNum(want))
	}
	return nil
}

func (st *state) cmdExpectDelivered(c command) error {
	switch len(c.Args) {
	case 0:
		// Bare form: every expected message arrived and nothing is pending.
		d, err := st.delivery(c)
		if err != nil {
			return err
		}
		if d.Delivered < d.Expected || d.Undrained != 0 {
			return c.errf("delivered %d of %d expected (undrained %d)",
				d.Delivered, d.Expected, d.Undrained)
		}
		return nil
	case 2:
		have, err := st.stat(c, "delivered")
		if err != nil {
			return err
		}
		want, err := strconv.ParseFloat(c.Args[1], 64)
		if err != nil {
			return c.errf("bad number %q", c.Args[1])
		}
		ok, err := cmpOp(c.Args[0], have, want)
		if err != nil {
			return c.errf("%v", err)
		}
		if !ok {
			return c.errf("delivered = %s, want %s %s", formatNum(have), c.Args[0], formatNum(want))
		}
		return nil
	}
	return c.errf("want: expect_delivered [<op> <n>]")
}

func (st *state) cmdExpectLogSHA(c command) error {
	if len(c.Args) != 1 {
		return c.errf("want: expect_log_sha256 <hex>")
	}
	d, err := st.delivery(c)
	if err != nil {
		return err
	}
	if d.LogSHA256 != c.Args[0] {
		return c.errf("log sha256 = %s, want %s", d.LogSHA256, c.Args[0])
	}
	return nil
}

func (st *state) cmdExpectOutputSHA(c command) error {
	if len(c.Args) != 2 {
		return c.errf("want: expect_output_sha256 <name> <hex>")
	}
	out, ok := st.outputs[c.Args[0]]
	if !ok {
		return c.errf("no output %q produced yet", c.Args[0])
	}
	sum := sha256.Sum256(out)
	have := hex.EncodeToString(sum[:])
	if have != c.Args[1] {
		return c.errf("%s sha256 = %s, want %s", c.Args[0], have, c.Args[1])
	}
	return nil
}

func (st *state) cmdAudit(c command) error {
	if len(c.Args) != 0 {
		return c.errf("takes no arguments")
	}
	d, err := st.delivery(c)
	if err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return c.errf("%v", err)
	}
	st.printf("audit_exactly_once: ok\n")
	return nil
}

// --- alerts ---

// cmdExpectAlert asserts the current state of one alert rule. Alert
// evaluation happens on the simulated clock (chaos rounds, fleet epoch
// barriers), so the assertion is deterministic: a rule either always fires at
// this point of the script for this seed, or never does.
//
//	expect_alert <rule> [state=firing|pending]   — rule is in that state
//	expect_no_alert <rule>                       — rule is inactive
func (st *state) cmdExpectAlert(c command, wantActive bool) error {
	pos, kv, err := kvArgs(c, 1, "state")
	if err != nil {
		return err
	}
	engine := st.reg.Alerts()
	state, ok := engine.State(pos[0])
	if !ok {
		return c.errf("no alert rule %q is installed (rules load when a world comes up)", pos[0])
	}
	if !wantActive {
		if len(kv) != 0 {
			return c.errf("expect_no_alert takes no options")
		}
		if state != obs.AlertInactive {
			return c.errf("alert %q is %s, want inactive", pos[0], state)
		}
		st.printf("expect_no_alert: %s ok\n", pos[0])
		return nil
	}
	want := obs.AlertFiring
	switch kv["state"] {
	case "", "firing":
	case "pending":
		want = obs.AlertPending
	default:
		return c.errf("bad state=%q (want firing or pending)", kv["state"])
	}
	if state != want {
		return c.errf("alert %q is %s, want %s", pos[0], state, want)
	}
	st.printf("expect_alert: %s %s ok\n", pos[0], want)
	return nil
}

// cmdSaveAlertLog captures the alert transition log as a named output, so
// match_file can pin exactly which rules fired and in what order — the alert
// analogue of save_log.
func (st *state) cmdSaveAlertLog(c command) error {
	if len(c.Args) != 1 {
		return c.errf("want: save_alert_log <name>")
	}
	log := st.reg.Alerts().FormatLog()
	st.outputs[c.Args[0]] = []byte(log)
	st.printf("save_alert_log: %s (%d events)\n", c.Args[0], strings.Count(log, "\n"))
	return nil
}

// --- metrics ---

func (st *state) cmdExpectMetric(c command) error {
	if len(c.Args) != 3 {
		return c.errf("want: expect_metric <name{labels}> <op> <n>")
	}
	have, err := st.metricValue(c, c.Args[0])
	if err != nil {
		return err
	}
	want, err := strconv.ParseFloat(c.Args[2], 64)
	if err != nil {
		return c.errf("bad number %q", c.Args[2])
	}
	ok, err := cmpOp(c.Args[1], have, want)
	if err != nil {
		return c.errf("%v", err)
	}
	if !ok {
		return c.errf("%s = %s, want %s %s", c.Args[0], formatNum(have), c.Args[1], formatNum(want))
	}
	return nil
}

// metricValue resolves a selector against the registry. pogo_entity_*
// families read the ledger (summing over rows matching the given partial
// device/script/topic labels); everything else is an exact counter/gauge/
// histogram lookup by canonical key.
func (st *state) metricValue(c command, sel string) (float64, error) {
	name, labels, err := parseSelector(sel)
	if err != nil {
		return 0, c.errf("%v", err)
	}
	if strings.HasPrefix(name, "pogo_entity_") {
		return st.entityValue(c, name, labels)
	}
	snap := st.reg.Snapshot()
	k := obs.Key(name, labels...)
	if v, ok := snap.Counters[k]; ok {
		return float64(v), nil
	}
	if v, ok := snap.Gauges[k]; ok {
		return v, nil
	}
	if h, ok := snap.Histograms[k]; ok {
		return float64(h.Count), nil
	}
	return 0, c.errf("metric %q not found", k)
}

func (st *state) entityValue(c command, family string, labels []obs.Label) (float64, error) {
	sel := map[string]string{}
	for _, l := range labels {
		switch l.Key {
		case "device", "script", "topic", "state":
			sel[l.Key] = l.Value
		default:
			return 0, c.errf("entity metrics take device/script/topic/state labels, not %q", l.Key)
		}
	}
	st.reg.Collect() // book pending deltas before reading the ledger
	var total float64
	matched := false
	for _, a := range st.reg.Ledger().Snapshot() {
		if v, ok := sel["device"]; ok && a.Device != v {
			continue
		}
		if v, ok := sel["script"]; ok && a.Script != v {
			continue
		}
		if v, ok := sel["topic"]; ok && a.Topic != v {
			continue
		}
		matched = true
		switch family {
		case "pogo_entity_uplink_bytes_total":
			total += float64(a.UplinkBytes)
		case "pogo_entity_downlink_bytes_total":
			total += float64(a.DownlinkBytes)
		case "pogo_entity_messages_total":
			total += float64(a.Messages)
		case "pogo_entity_wake_milliseconds_total":
			total += float64(a.WakeMS)
		case "pogo_entity_steps_total":
			total += float64(a.Steps)
		case "pogo_entity_deadline_exceeded_total":
			total += float64(a.DeadlineExceeded)
		case "pogo_entity_tailsync_hits_total":
			total += float64(a.TailHits)
		case "pogo_entity_tailsync_misses_total":
			total += float64(a.TailMisses)
		case "pogo_entity_energy_joules_total":
			if state, ok := sel["state"]; ok {
				total += a.Energy[state]
			} else {
				total += a.EnergyTotal
			}
		default:
			return 0, c.errf("unknown entity metric family %q", family)
		}
	}
	if !matched {
		return 0, c.errf("no ledger rows match %s", sel)
	}
	return total, nil
}
