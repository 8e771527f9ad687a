package pogo

import (
	"os"
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

// internal/store maps its log on unix and writes it with WriteAt elsewhere
// (segfile_unix.go, segfile_other.go). Tier-1 runs on unix only, so building
// the package for windows is what keeps the second file compiling.
func TestStoreBuildsOffUnix(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "build", "./internal/store")
	cmd.Env = append(os.Environ(), "GOOS=windows", "GOARCH=amd64")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOOS=windows go build ./internal/store: %v\n%s", err, out)
	}
}
