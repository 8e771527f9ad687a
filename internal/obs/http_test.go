package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerContentTypes pins the Content-Type of every endpoint: /metrics
// (and /alerts?format=prom) speak the Prometheus 0.0.4 text exposition,
// every JSON endpoint says application/json, and the text dumps are
// text/plain. A scraper that content-negotiates must never see a bare or
// wrong header.
func TestHandlerContentTypes(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	r.Alerts().addRules(Rule{Name: "a", Kind: ruleThreshold, Metric: "x_total", Op: ">", Value: 0})
	r.Sample(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), "t")
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	cases := []struct {
		path string
		want string
		json bool
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", false},
		{"/metrics.json", "application/json", true},
		{"/accounting", "application/json", true},
		{"/timeseries", "application/json", true},
		{"/trace", "application/json", true},
		{"/trace.pftrace", "application/json", true},
		{"/alerts", "application/json", true},
		{"/alerts?format=prom", "text/plain; version=0.0.4; charset=utf-8", false},
		{"/stats", "text/plain; charset=utf-8", false},
	}
	for _, tc := range cases {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Errorf("GET %s: Content-Type = %q, want %q", tc.path, got, tc.want)
		}
		if tc.json && !json.Valid(body) {
			t.Errorf("GET %s: body is not valid JSON:\n%s", tc.path, body)
		}
	}
}

// TestAlertsEndpointBody sanity-checks the /alerts JSON and prom payloads.
func TestAlertsEndpointBody(t *testing.T) {
	r := NewRegistry()
	r.Gauge("pending").Set(5)
	r.Alerts().addRules(Rule{Name: "backlog", Severity: "warn", Kind: ruleThreshold, Metric: "pending", Op: ">", Value: 1})
	r.Sample(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), "t")
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Alerts []AlertSnapshot `json:"alerts"`
		Log    []alertEvent    `json:"log"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode /alerts: %v", err)
	}
	resp.Body.Close()
	if len(payload.Alerts) != 1 || payload.Alerts[0].StateStr != "firing" {
		t.Fatalf("alerts payload = %+v", payload.Alerts)
	}
	if len(payload.Log) != 1 || payload.Log[0].Rule != "backlog" {
		t.Fatalf("log payload = %+v", payload.Log)
	}

	resp, err = srv.Client().Get(srv.URL + "/alerts?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `ALERTS{alertname="backlog",severity="warn",alertstate="firing"} 1`) {
		t.Fatalf("prom payload:\n%s", body)
	}
}

// TestServeNodeReportsBusyPort: a live node's listener that cannot bind is
// reported and the rest of its observability still starts — the rule pack,
// the runtime gauges, the other listener — and stop returns once the
// servers it started have.
func TestServeNodeReportsBusyPort(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	reg := NewRegistry()
	stop, err := ServeNode(reg, "t", busy.Addr().String(), "127.0.0.1:0")
	if err == nil || !strings.HasPrefix(err.Error(), "metrics: ") {
		t.Errorf("busy metrics port: err = %v", err)
	}
	if len(reg.Alerts().Rules()) == 0 {
		t.Error("no default rules installed")
	}
	if _, ok := reg.Snapshot().Gauges["runtime_goroutines"]; !ok {
		t.Error("runtime sampler not started")
	}
	stop()
}
