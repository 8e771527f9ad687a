package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"pogo/internal/obs"
)

// LedgerTables is the paper's tables as the per-entity ledger alone books
// them: Table 3 from the "<carrier>/base" and "<carrier>/pogo" entities and
// the phone's uplink-bytes counter, the §5.3 reduction from the
// counterfactual raw-scan uplink against the clusters the collector
// received.
type LedgerTables struct {
	Table3          []LedgerCarrier
	UplinkCounter   int64 // transport_bytes_sent_total{node=phone}, all carriers
	UplinkReported  int64 // the Table 3 rows' UplinkBytes, summed
	RawUplink       int64 // (scan.js, wifi-scan-raw) uplink bytes
	ClusterDownlink int64 // the collector's "clusters" downlink bytes
	ReductionPct    float64
}

// LedgerCarrier is one Table 3 row's two ledger entities.
type LedgerCarrier struct {
	Carrier    string
	Base, Pogo obs.AccountSnapshot
}

// CrossCheckLedger regenerates the tables from the ledger in reg and checks
// them against what the experiments measured through their own meters: each
// carrier's energy with and without Pogo to 1 %, its uplink bytes and the
// phone's uplink counter exactly, and the Table 4 reduction to 1 %. The two
// sides are integrated by independent code from the same simulated events.
// t3 and t4 are the experiments' results; either may be nil to skip it. The
// error names every mismatch.
func CrossCheckLedger(reg *obs.Registry, t3 []Table3Row, t4 *Table4Result) (LedgerTables, error) {
	var lt LedgerTables
	var bad []string
	snap := reg.Ledger().Snapshot()
	for _, r := range t3 {
		tag := strings.ToLower(r.Carrier)
		c := LedgerCarrier{r.Carrier, accountFor(snap, tag+"/base"), accountFor(snap, tag+"/pogo")}
		lt.Table3 = append(lt.Table3, c)
		if !closeEnough(c.Base.EnergyTotal, r.WithoutPogo) || !closeEnough(c.Pogo.EnergyTotal, r.WithPogo) ||
			c.Pogo.UplinkBytes != r.UplinkBytes {
			bad = append(bad, fmt.Sprintf("%s: ledger %.3f J without Pogo, %.3f J and %d B with; meters %.3f J, %.3f J and %d B",
				r.Carrier, c.Base.EnergyTotal, c.Pogo.EnergyTotal, c.Pogo.UplinkBytes, r.WithoutPogo, r.WithPogo, r.UplinkBytes))
		}
		lt.UplinkReported += r.UplinkBytes
	}
	if t3 != nil {
		lt.UplinkCounter = reg.CounterValue("transport_bytes_sent_total", obs.L("node", "phone"))
		if lt.UplinkCounter != lt.UplinkReported {
			bad = append(bad, fmt.Sprintf("uplink bytes: counter %d, reported %d", lt.UplinkCounter, lt.UplinkReported))
		}
	}
	if t4 != nil {
		for _, a := range snap {
			if a.Script == "scan.js" && a.Topic == "wifi-scan-raw" {
				lt.RawUplink += a.UplinkBytes
			}
			if a.Device == "collector" && a.Script == "" && a.Topic == "clusters" {
				lt.ClusterDownlink += a.DownlinkBytes
			}
		}
		if lt.RawUplink > 0 {
			lt.ReductionPct = 100 * (1 - float64(lt.ClusterDownlink)/float64(lt.RawUplink))
		}
		if !closeEnough(lt.ReductionPct, t4.ReductionPct) {
			bad = append(bad, fmt.Sprintf("table4 reduction: ledger %.1f%%, experiment %.1f%%", lt.ReductionPct, t4.ReductionPct))
		}
	}
	if bad != nil {
		return lt, errors.New("ledger mismatch: " + strings.Join(bad, "; "))
	}
	return lt, nil
}

// accountFor finds a device's whole-device ledger row in a snapshot.
func accountFor(snap []obs.AccountSnapshot, device string) obs.AccountSnapshot {
	for _, a := range snap {
		if a.Device == device && a.Script == "" && a.Topic == "" {
			return a
		}
	}
	return obs.AccountSnapshot{}
}

// closeEnough allows 1% relative drift (at least 0.01 absolute).
func closeEnough(a, b float64) bool { return math.Abs(a-b) <= max(0.01*b, 0.01) }
