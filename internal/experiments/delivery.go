package experiments

import (
	"fmt"
	"strings"
)

// Delivery is the exactly-once audit of one chaos or fleet run: every
// (receiver, sender, channel) stream must carry sequences 0..n-1 once each,
// in order, with no outbox entry left pending at the end. Log is the full
// delivery log (one line per application-level delivery); LogSHA256
// fingerprints it so two runs can be compared for bit-for-bit
// reproducibility without shipping the log itself. ChaosResult and
// FleetResult embed it, so its JSON keys sit at their top level.
type Delivery struct {
	Expected   int      `json:"expected_deliveries"`
	Delivered  int      `json:"delivered"`
	Lost       int      `json:"lost"`
	Duplicated int      `json:"duplicated"`
	OutOfOrder int      `json:"out_of_order"`
	Undrained  int      `json:"undrained"`
	LogSHA256  string   `json:"log_sha256"`
	Log        []string `json:"-"`
}

// Err is the run's verdict: nil when nothing was lost, duplicated, reordered
// or left undrained, else an error naming each nonzero count.
func (d Delivery) Err() error {
	var bad []string
	for _, f := range []struct {
		name string
		n    int
	}{{"lost", d.Lost}, {"dup", d.Duplicated}, {"ooo", d.OutOfOrder}, {"undrained", d.Undrained}} {
		if f.n != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", f.name, f.n))
		}
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("exactly-once delivery violated: %s", strings.Join(bad, " "))
}
