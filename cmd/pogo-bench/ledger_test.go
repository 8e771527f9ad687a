package main

import (
	"strings"
	"testing"

	"pogo/internal/experiments"
	"pogo/internal/obs"
)

// TestLedgerMismatchFailsTheRun: Table 3 rows one uplink byte off the ledger
// print MISMATCH and come back as an error, which main turns into exit
// status 1, while the matching rows print MATCH and no error.
func TestLedgerMismatchFailsTheRun(t *testing.T) {
	reg := obs.NewRegistry()
	rows := experiments.Table3Obs(reg)
	var err error
	out := stdoutOf(t, func() { _, err = checkTable3Ledger(reg, rows) })
	if err != nil || !strings.Contains(out, "MATCH") {
		t.Fatalf("matching rows: err = %v; it printed:\n%s", err, out)
	}
	rows[0].UplinkBytes++
	out = stdoutOf(t, func() { _, err = checkTable3Ledger(reg, rows) })
	if err == nil || !strings.Contains(out, "MISMATCH") {
		t.Fatalf("rows one uplink byte off: err = %v; it printed:\n%s", err, out)
	}
}
