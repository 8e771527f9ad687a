// Command pogo-doctor runs a one-shot health battery against a live Pogo
// node's metrics endpoint (whatever -metrics was set to on pogo-server or
// pogo-collector): is the node reachable, is the alert engine quiet, has the
// exactly-once delivery contract held, is data still flowing, is the process
// itself healthy. Each check prints one PASS/WARN/FAIL line; the exit code is
// 0 when everything passes, 1 when the worst finding is a warning, 2 when
// anything fails.
//
// Usage:
//
//	pogo-doctor -addr 127.0.0.1:8622
//	pogo-doctor -selftest -expect exactly_once_violation
//
// -selftest needs no running node: it builds a short in-process chaos world
// with a rigged duplicate delivery, serves its registry over loopback HTTP,
// and runs the battery against that — verifying end to end that the doctor
// detects the faults the -expect rules describe. TestSelftestDetectsRiggedWorld
// runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"pogo/internal/experiments"
	"pogo/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8622", "metrics address of a running pogo-server/pogo-collector")
		selftest = flag.Bool("selftest", false, "run the battery against a rigged in-process chaos world instead of a live node")
		expect   = flag.String("expect", "", "selftest: comma-separated rules that must be firing (e.g. exactly_once_violation)")
	)
	flag.Parse()
	if *selftest {
		os.Exit(runSelftest(*expect))
	}
	os.Exit(runBattery(*addr))
}

// check is one battery finding. Status ranks: PASS < WARN < FAIL.
type check struct {
	status string // "PASS", "WARN", "FAIL"
	name   string
	detail string
}

func statusRank(s string) int {
	switch s {
	case "FAIL":
		return 2
	case "WARN":
		return 1
	default:
		return 0
	}
}

// runBattery executes every check against the node at addr and returns the
// exit code (0 ok, 1 warnings, 2 failures).
func runBattery(addr string) int {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	var checks []check
	snap, err := fetchSnapshot(base + "/metrics.json")
	if err != nil {
		// Nothing else can run without the node; report and bail.
		checks = append(checks, check{"FAIL", "node reachable", err.Error()})
		return report(checks)
	}
	checks = append(checks, check{"PASS", "node reachable",
		fmt.Sprintf("%s: %d counters, %d gauges, %d histograms",
			base, len(snap.Counters), len(snap.Gauges), len(snap.Histograms))})

	checks = append(checks, checkStats(base))
	checks = append(checks, checkAlerts(base)...)
	checks = append(checks, checkExactlyOnce(snap))
	checks = append(checks, checkBacklog(snap))
	checks = append(checks, checkDataFlow(snap))
	checks = append(checks, checkRuntime(snap))
	return report(checks)
}

// report prints one line per check plus a summary, and maps the worst status
// to the exit code.
func report(checks []check) int {
	worst, warns, fails := 0, 0, 0
	for _, c := range checks {
		fmt.Printf("%-4s %-22s %s\n", c.status, c.name, c.detail)
		if r := statusRank(c.status); r > worst {
			worst = r
		}
		switch c.status {
		case "WARN":
			warns++
		case "FAIL":
			fails++
		}
	}
	fmt.Printf("pogo-doctor: %d checks, %d failed, %d warned\n", len(checks), fails, warns)
	return worst
}

// checkStats verifies the human-readable dump endpoint answers.
func checkStats(base string) check {
	resp, err := httpClient().Get(base + "/stats")
	if err != nil {
		return check{"WARN", "stats endpoint", err.Error()}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return check{"WARN", "stats endpoint", resp.Status}
	}
	return check{"PASS", "stats endpoint", "/stats serves " + resp.Header.Get("Content-Type")}
}

// checkAlerts reads /alerts and turns every non-inactive rule into a finding:
// firing critical → FAIL, firing warn / pending → WARN.
func checkAlerts(base string) []check {
	alerts, err := fetchAlerts(base + "/alerts")
	if err != nil {
		return []check{{"WARN", "alert engine", err.Error()}}
	}
	var out []check
	for _, a := range alerts {
		detail := fmt.Sprintf("%s since %s, value=%g",
			a.StateStr, a.Since.Format(time.RFC3339), a.Value)
		switch {
		case a.State == obs.AlertFiring && a.Rule.Severity == "critical":
			out = append(out, check{"FAIL", "alert " + a.Rule.Name, detail})
		case a.State == obs.AlertFiring || a.State == obs.AlertPending:
			out = append(out, check{"WARN", "alert " + a.Rule.Name, detail})
		}
	}
	if len(out) == 0 {
		return []check{{"PASS", "alert engine", fmt.Sprintf("%d rules installed, none active", len(alerts))}}
	}
	return out
}

// checkExactlyOnce audits the delivery contract: any charged violation is a
// hard failure, whatever the alert state.
func checkExactlyOnce(snap obs.Snapshot) check {
	n := sumCounters(snap, "delivery_violations_total")
	if n > 0 {
		return check{"FAIL", "exactly-once delivery", fmt.Sprintf("%d violations charged", n)}
	}
	return check{"PASS", "exactly-once delivery", "no duplicate or out-of-order deliveries"}
}

// checkBacklog flags a swollen outbox before the backpressure rule's hold
// time has elapsed.
func checkBacklog(snap obs.Snapshot) check {
	pending := sumGauges(snap, "outbox_pending") + sumGauges(snap, "node_outbox_pending")
	if pending > 200 {
		return check{"WARN", "outbox backlog", fmt.Sprintf("%.0f messages pending", pending)}
	}
	return check{"PASS", "outbox backlog", fmt.Sprintf("%.0f messages pending", pending)}
}

// checkDataFlow looks for evidence any message has ever arrived — and for
// frames that arrived but were thrown away by the CRC or envelope check
// (flipped bytes in flight, anything that is not the one wire format).
// Corrupt drops with no surviving traffic mean the node is receiving
// garbage, not nothing.
func checkDataFlow(snap obs.Snapshot) check {
	n := sumCounters(snap, "transport_messages_received_total")
	corrupt := sumCounters(snap, "transport_corrupt_dropped_total")
	switch {
	case n > 0 && corrupt > 0:
		return check{"WARN", "data flow",
			fmt.Sprintf("%d messages received, %d corrupt frames dropped", n, corrupt)}
	case n > 0:
		return check{"PASS", "data flow", fmt.Sprintf("%d messages received", n)}
	case corrupt > 0:
		return check{"FAIL", "data flow",
			fmt.Sprintf("every inbound frame corrupt: %d dropped, 0 delivered", corrupt)}
	}
	return check{"WARN", "data flow", "no messages received yet (idle node, or nothing deployed)"}
}

// checkRuntime sanity-checks the process via the runtime sampler's gauges,
// when the node exports them.
func checkRuntime(snap obs.Snapshot) check {
	g, ok := snap.Gauges["runtime_goroutines"]
	if !ok {
		return check{"PASS", "process runtime", "runtime sampler not enabled on this node"}
	}
	if g > 5000 {
		return check{"WARN", "process runtime", fmt.Sprintf("%.0f goroutines (possible leak)", g)}
	}
	return check{"PASS", "process runtime",
		fmt.Sprintf("%.0f goroutines, %.1f MiB heap", g, snap.Gauges["runtime_heap_alloc_bytes"]/(1<<20))}
}

// runSelftest rigs a short chaos world with a guaranteed duplicate delivery,
// serves its registry over loopback, and runs the battery against it. The
// battery must detect trouble, and every -expect rule must be firing.
func runSelftest(expect string) int {
	reg := obs.NewRegistry()
	w := experiments.NewChaosWorld(experiments.ChaosConfig{
		Seed: 7, Phones: 8, MessagesPerPhone: 6, CommandsPerPhone: 2,
		Window: 2 * time.Minute, Step: 2 * time.Second, RetryAfter: 6 * time.Second,
		Drop: 0.35, MaxDelay: 400 * time.Millisecond, PartitionFrac: 0.5,
		Obs: reg,
	})
	for k := 0; k < w.Rounds(); k++ {
		w.RunRound(k)
	}
	// Re-send phone00's first upload: the transport delivers both copies, the
	// delivery auditor judges the second a duplicate as it arrives and
	// charges delivery_violations_total, and exactly_once_violation fires.
	if err := w.Enqueue(experiments.ChaosPhoneName(0), experiments.ChaosCollectorName, "upload", 0); err != nil {
		fmt.Fprintln(os.Stderr, "pogo-doctor: selftest rig:", err)
		return 2
	}
	w.Drain()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pogo-doctor: selftest listen:", err)
		return 2
	}
	defer ln.Close()
	go http.Serve(ln, obs.Handler(reg))
	addr := ln.Addr().String()
	fmt.Printf("pogo-doctor: selftest world on http://%s (rigged duplicate delivery)\n", addr)

	code := runBattery(addr)
	if code == 0 {
		fmt.Fprintln(os.Stderr, "pogo-doctor: SELFTEST FAIL: battery passed a rigged world")
		return 1
	}
	alerts, err := fetchAlerts("http://" + addr + "/alerts")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pogo-doctor: SELFTEST FAIL:", err)
		return 1
	}
	firing := map[string]bool{}
	for _, a := range alerts {
		if a.State == obs.AlertFiring {
			firing[a.Rule.Name] = true
		}
	}
	ok := true
	for _, rule := range strings.Split(expect, ",") {
		if rule = strings.TrimSpace(rule); rule == "" {
			continue
		}
		if !firing[rule] {
			fmt.Fprintf(os.Stderr, "pogo-doctor: SELFTEST FAIL: expected %s firing, got %v\n",
				rule, sortedKeys(firing))
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Printf("pogo-doctor: selftest ok (battery exit %d, firing: %v)\n", code, sortedKeys(firing))
	return 0
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func httpClient() *http.Client { return &http.Client{Timeout: 5 * time.Second} }

// fetchSnapshot pulls the full instrument dump from /metrics.json.
func fetchSnapshot(url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := httpClient().Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode %s: %w", url, err)
	}
	return snap, nil
}

// fetchAlerts pulls the rule states from /alerts.
func fetchAlerts(url string) ([]obs.AlertSnapshot, error) {
	resp, err := httpClient().Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var payload struct {
		Alerts []obs.AlertSnapshot `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return payload.Alerts, nil
}

// sumCounters sums every series in the named counter family (bare name or
// name{labels} keys).
func sumCounters(snap obs.Snapshot, family string) int64 {
	var n int64
	for k, v := range snap.Counters {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}

// sumGauges sums every series in the named gauge family.
func sumGauges(snap obs.Snapshot, family string) float64 {
	var n float64
	for k, v := range snap.Gauges {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}
