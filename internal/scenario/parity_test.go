package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"pogo/internal/experiments"
)

// pinnedLogHashes extracts the expect_log_sha256 arguments of a scenario
// archive, in script order.
func pinnedLogHashes(t *testing.T, file string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^expect_log_sha256 ([0-9a-f]{64})$`)
	var hashes []string
	for _, m := range re.FindAllSubmatch(data, -1) {
		hashes = append(hashes, string(m[1]))
	}
	return hashes
}

// TestChaosTxtarParity proves the DSL is a faithful re-expression of the Go
// chaos experiment: the hashes pinned in chaos.txtar must be the exact
// same-seed delivery-log SHA-256s that internal/experiments produces AND the
// baselines recorded in BENCH_chaos.json. Any divergence between the three
// fails here, not silently.
func TestChaosTxtarParity(t *testing.T) {
	pinned := pinnedLogHashes(t, filepath.Join("testdata", "scenarios", "chaos.txtar"))
	scenarios := experiments.ChaosScenarios(1)
	if len(pinned) != len(scenarios) {
		t.Fatalf("chaos.txtar pins %d hashes, experiment matrix has %d levels", len(pinned), len(scenarios))
	}

	var bench []struct {
		Scenario  string `json:"scenario"`
		LogSHA256 string `json:"log_sha256"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	benchHash := map[string]string{}
	for _, b := range bench {
		benchHash[b.Scenario] = b.LogSHA256
	}

	for i, sc := range scenarios {
		sc := sc
		i := i
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			if h, ok := benchHash[sc.Name]; !ok {
				t.Errorf("BENCH_chaos.json has no %q baseline", sc.Name)
			} else if h != pinned[i] {
				t.Errorf("chaos.txtar pins %s, BENCH_chaos.json records %s", pinned[i], h)
			}
			res := experiments.Chaos(sc.Name, sc.Config)
			if res.LogSHA256 != pinned[i] {
				t.Errorf("experiments.Chaos(%s) log sha256 = %s, chaos.txtar pins %s",
					sc.Name, res.LogSHA256, pinned[i])
			}
		})
	}
}

// TestFleetTxtarParity: the hash pinned in fleet.txtar must equal every
// shard-count baseline in BENCH_fleet.json (the delivery log is shard-count
// invariant). The actual fleet execution happens through the archive in
// TestScenarios; a small two-shard-count run here re-proves the invariance
// property the pin relies on.
func TestFleetTxtarParity(t *testing.T) {
	pinned := pinnedLogHashes(t, filepath.Join("testdata", "scenarios", "fleet.txtar"))
	if len(pinned) != 1 {
		t.Fatalf("fleet.txtar pins %d hashes, want 1", len(pinned))
	}
	var bench struct {
		Runs []struct {
			Phones    int    `json:"phones"`
			Shards    int    `json:"shards"`
			LogSHA256 string `json:"log_sha256"`
		} `json:"runs"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	// The baseline also carries -fleet-scale rows at other fleet sizes; the
	// txtar pin covers the canonical 2000-phone workload at every shard
	// count.
	matched := 0
	for _, run := range bench.Runs {
		if run.Phones != 2000 {
			continue
		}
		matched++
		if run.LogSHA256 != pinned[0] {
			t.Errorf("fleet.txtar pins %s, BENCH_fleet.json shards=%d records %s",
				pinned[0], run.Shards, run.LogSHA256)
		}
	}
	if matched == 0 {
		t.Fatal("BENCH_fleet.json has no 2000-phone runs")
	}

	small := experiments.Fleet(experiments.FleetScenario(7, 120, 1))
	resharded := experiments.Fleet(experiments.FleetScenario(7, 120, 3))
	if small.LogSHA256 != resharded.LogSHA256 {
		t.Errorf("shard invariance broken: shards=1 %s vs shards=3 %s",
			small.LogSHA256, resharded.LogSHA256)
	}
}

// TestTable4TxtarParity: running the canonical small Table 4 config directly
// through internal/experiments must render byte-identically to the golden
// section the table4.txtar scenario matches against.
func TestTable4TxtarParity(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "scenarios", "table4.txtar"))
	if err != nil {
		t.Fatal(err)
	}
	golden, ok := ParseTxtar(data).File("table4.txt")
	if !ok {
		t.Fatal("table4.txtar has no table4.txt golden section")
	}
	res, err := experiments.Table4(experiments.SmallTable4Config(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.RenderTable4(res); got != string(golden) {
		t.Errorf("direct experiment rendering differs from the txtar golden\n%s",
			firstDiff([]byte(got), golden))
	}
}
