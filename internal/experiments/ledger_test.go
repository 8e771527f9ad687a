package experiments

import (
	"testing"

	"pogo/internal/obs"
)

// TestLedgerCrossCheck: the tables regenerated from the per-entity ledger
// agree with what the experiments measured through their own meters —
// Table 3 per carrier plus the phone's uplink counter, and the Table 4
// reduction on the canonical shrunk workload.
func TestLedgerCrossCheck(t *testing.T) {
	reg := obs.NewRegistry()
	rows := Table3Obs(reg)
	lt, err := CrossCheckLedger(reg, rows, nil)
	if err != nil {
		t.Error(err)
	}
	if len(lt.Table3) != len(rows) || lt.UplinkCounter == 0 {
		t.Errorf("table3 from ledger: %d carriers, uplink counter %d", len(lt.Table3), lt.UplinkCounter)
	}

	cfg := SmallTable4Config(1, 1)
	cfg.Obs = obs.NewRegistry()
	res, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt, err = CrossCheckLedger(cfg.Obs, nil, &res)
	if err != nil {
		t.Error(err)
	}
	if lt.RawUplink == 0 || lt.ClusterDownlink == 0 {
		t.Errorf("table4 from ledger: raw %d B, clusters %d B", lt.RawUplink, lt.ClusterDownlink)
	}
}
