package pogo

import (
	"os/exec"
	"testing"
)

// bench/ is a nested module, so `go build ./... && go test ./...` never
// compiles it — yet it imports pogo/internal/... and BENCHMARK.json keeps it
// byte-unchanged, which freezes the API it uses (DESIGN.md, "API frozen by
// bench/"). Vetting it from here makes a change that breaks that API fail
// tier-1 instead of the benchmark run.
func TestBenchModuleCompiles(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
