package experiments

import (
	"strings"
	"testing"
)

// TestFleetMultiprocMatchesInProcess is the multi-process determinism
// regression: splitting the shard range over worker protocol instances must
// reproduce the in-process run byte for byte — same delivery-log hash, same
// exactly-once audit, same epoch count. The pipe spawner runs the full wire
// protocol (boot, barriers with staged envelopes, log streaming) on
// goroutines, so `make check` exercises it under -race.
func TestFleetMultiprocMatchesInProcess(t *testing.T) {
	cfg := smallFleet(7, 60, 4)
	ref := Fleet(cfg)
	if ref.Lost != 0 || ref.Duplicated != 0 || ref.OutOfOrder != 0 || ref.Undrained != 0 {
		t.Fatalf("reference run violated delivery guarantee: %+v", ref)
	}
	for _, procs := range []int{2, 4} {
		mcfg := cfg
		mcfg.Procs = procs
		res, err := FleetMultiproc(mcfg, PipeFleetSpawner())
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.Lost != 0 || res.Duplicated != 0 || res.OutOfOrder != 0 || res.Undrained != 0 {
			t.Errorf("procs=%d violated delivery guarantee: lost=%d dup=%d ooo=%d undrained=%d",
				procs, res.Lost, res.Duplicated, res.OutOfOrder, res.Undrained)
		}
		if res.LogSHA256 != ref.LogSHA256 {
			t.Errorf("procs=%d: log hash %s != in-process hash %s", procs, res.LogSHA256, ref.LogSHA256)
		}
		if res.Delivered != ref.Delivered {
			t.Errorf("procs=%d: delivered %d != in-process %d", procs, res.Delivered, ref.Delivered)
		}
		if res.Epochs != ref.Epochs {
			t.Errorf("procs=%d: epochs %d != in-process %d", procs, res.Epochs, ref.Epochs)
		}
		if res.Events != ref.Events {
			t.Errorf("procs=%d: events %d != in-process %d", procs, res.Events, ref.Events)
		}
		if res.FabricMessages != ref.FabricMessages {
			t.Errorf("procs=%d: fabric %d != in-process %d", procs, res.FabricMessages, ref.FabricMessages)
		}
		if res.Procs != procs {
			t.Errorf("procs=%d: result reports procs=%d", procs, res.Procs)
		}
		if len(res.WorkerCPUSeconds) != procs {
			t.Errorf("procs=%d: %d worker cpu figures", procs, len(res.WorkerCPUSeconds))
		}
	}
}

// TestFleetMultiprocKeepLog: the coordinator materializes the same textual
// log the in-process run would.
func TestFleetMultiprocKeepLog(t *testing.T) {
	cfg := smallFleet(3, 24, 2)
	cfg.KeepLog = true
	ref := Fleet(cfg)
	mcfg := cfg
	mcfg.Procs = 2
	res, err := FleetMultiproc(mcfg, PipeFleetSpawner())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) == 0 || len(res.Log) != len(ref.Log) {
		t.Fatalf("log lengths differ: multiproc %d vs in-process %d", len(res.Log), len(ref.Log))
	}
	if strings.Join(res.Log, "\n") != strings.Join(ref.Log, "\n") {
		t.Error("materialized logs differ between multiproc and in-process runs")
	}
}

// TestFleetBytesPerPhone: the per-device footprint measurement must be
// populated and, at this scale, comfortably under the 100k-phone budget of
// 4 KB/phone the bench gate enforces.
func TestFleetBytesPerPhone(t *testing.T) {
	res := Fleet(smallFleet(1, 256, 4))
	if res.BytesPerPhone <= 0 {
		t.Fatalf("fleet_bytes_per_phone not measured: %v", res.BytesPerPhone)
	}
	// Small worlds amortize fixed costs poorly, so allow generous headroom
	// over the 4 KB budget enforced at 100k phones.
	if res.BytesPerPhone > 64<<10 {
		t.Errorf("fleet_bytes_per_phone = %.0f, absurdly high", res.BytesPerPhone)
	}
	if res.CPUSeconds <= 0 {
		t.Errorf("cpu_seconds not measured: %v", res.CPUSeconds)
	}
}
