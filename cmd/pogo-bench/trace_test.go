package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"pogo/internal/obs"
)

// TestFlightRecorderExplainsASabotagedRun drills the flight recorder: a chaos
// run whose post-window drain is sabotaged leaves messages genuinely in
// flight, so its audit fails, and the dump it writes must reassemble into
// span trees whose in-flight paths root at their publish or enqueue.
func TestFlightRecorderExplainsASabotagedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	var chaosErr, verifyErr error
	out := stdoutOf(t, func() {
		if chaosErr = runChaos(1, 50, "", path, true); chaosErr != nil {
			verifyErr = runVerifyFlight(path)
		}
	})
	if chaosErr == nil {
		t.Fatalf("sabotaged run passed its audit; it printed:\n%s", out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("no dump written: %v", err)
	}
	if verifyErr != nil {
		t.Fatalf("%v; it printed:\n%s", verifyErr, out)
	}
	d, err := obs.LoadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Incomplete()) == 0 {
		t.Errorf("dump of %d traces holds no in-flight trace", len(d.Traces))
	}
}

// TestVerifyFlightRejectsAnEmptyDump: every dump is written after a failed
// audit, so one that holds no trace cannot verify.
func TestVerifyFlightRejectsAnEmptyDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := obs.BuildFlightDump(obs.NewRegistry(), "audit failed", time.Unix(0, 0)).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var err error
	out := stdoutOf(t, func() { err = runVerifyFlight(path) })
	if err == nil {
		t.Errorf("a dump with no trace verified; it printed:\n%s", out)
	}
}

// stdoutOf runs f with the process's stdout going to a file and returns what
// f printed there, so that the run's report reaches the test log only with
// a failure.
func stdoutOf(t *testing.T, f func()) string {
	file, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	stdout := os.Stdout
	os.Stdout = file
	defer func() { os.Stdout = stdout }()
	f()
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
