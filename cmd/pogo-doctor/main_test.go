package main

import (
	"os"
	"testing"
)

// TestSelftestDetectsRiggedWorld runs the doctor's own end-to-end check: the
// battery, served a chaos world with a rigged duplicate delivery over
// loopback HTTP, must find trouble, with the exactly-once and latency rules
// firing.
func TestSelftestDetectsRiggedWorld(t *testing.T) {
	var code int
	out := stdoutOf(t, func() { code = runSelftest("exactly_once_violation,delivery_latency_slo") })
	if code != 0 {
		t.Errorf("selftest exit %d, want 0; it printed:\n%s", code, out)
	}
}

// stdoutOf runs f with the process's stdout going to a file and returns what
// f printed there, so that the battery's own FAIL lines reach the test log
// only with a failure.
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
