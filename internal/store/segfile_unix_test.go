//go:build unix

package store

import (
	"os"
	"testing"

	"pogo/internal/vclock"
)

// TestTruncatedMappingIsAnError: a file cut short behind an open outbox
// leaves mapped pages that nothing backs, and a store into one faults. Add
// and Ack report it as their error; the process carries on.
func TestTruncatedMappingIsAnError(t *testing.T) {
	o, path := openTemp(t)
	defer o.Close()
	id, err := o.Add("c", "ch", 0, []byte("mapped"), vclock.SimEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Add("c", "ch", 1, []byte("lost"), vclock.SimEpoch); err == nil {
		t.Error("Add into a page the file no longer backs succeeded")
	} else {
		t.Log("Add:", err)
	}
	if err := o.Ack(id); err == nil {
		t.Error("Ack into a page the file no longer backs succeeded")
	}
}
