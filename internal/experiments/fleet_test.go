package experiments

import (
	"runtime"
	"testing"
	"time"

	"pogo/internal/obs"
)

func smallFleet(seed int64, phones, shards int) FleetConfig {
	cfg := FleetScenario(seed, phones, shards)
	cfg.MessagesPerPhone = 5
	cfg.CommandsPerPhone = 2
	cfg.Window = time.Minute
	cfg.Collectors = 2
	return cfg
}

// TestFleetDeterministicAcrossShardsAndProcs is the full-stack determinism
// regression: the same seed yields zero-loss exactly-once delivery AND a
// byte-identical delivery-log hash whatever the shard count and GOMAXPROCS.
// make check runs it under -race, so it also proves the parallel engine
// keeps the transport/faultnet/obs stack race-clean.
func TestFleetDeterministicAcrossShardsAndProcs(t *testing.T) {
	const phones = 60
	ref := Fleet(smallFleet(7, phones, 1))
	if ref.Lost != 0 || ref.Duplicated != 0 || ref.OutOfOrder != 0 || ref.Undrained != 0 {
		t.Fatalf("reference run violated delivery guarantee: %+v", ref)
	}
	if ref.Delivered != ref.Expected || ref.Expected != phones*(5+2) {
		t.Fatalf("delivered %d of %d expected", ref.Delivered, ref.Expected)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{2, 4} {
			res := Fleet(smallFleet(7, phones, shards))
			if res.Lost != 0 || res.Duplicated != 0 || res.OutOfOrder != 0 || res.Undrained != 0 {
				t.Errorf("shards=%d procs=%d violated delivery guarantee: lost=%d dup=%d ooo=%d undrained=%d",
					shards, procs, res.Lost, res.Duplicated, res.OutOfOrder, res.Undrained)
			}
			if res.LogSHA256 != ref.LogSHA256 {
				t.Errorf("shards=%d procs=%d: log hash %s != 1-shard hash %s",
					shards, procs, res.LogSHA256, ref.LogSHA256)
			}
			if res.CrossShard == 0 {
				t.Errorf("shards=%d: no cross-shard traffic recorded", shards)
			}
		}
	}
}

// TestFleetObsInstrumentation checks the engine's counters surface through a
// registry attached to the scenario.
func TestFleetObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallFleet(3, 20, 2)
	cfg.Obs = reg
	res := Fleet(cfg)
	if res.Lost != 0 || res.Undrained != 0 {
		t.Fatalf("run violated delivery guarantee: %+v", res)
	}
	if got := reg.CounterValue("fleet_epochs_total"); got != int64(res.Epochs) || got == 0 {
		t.Errorf("fleet_epochs_total = %d, result says %d", got, res.Epochs)
	}
	if got := reg.CounterValue("fleet_fabric_messages_total"); got != res.FabricMessages || got == 0 {
		t.Errorf("fleet_fabric_messages_total = %d, result says %d", got, res.FabricMessages)
	}
	if got := reg.CounterValue("fleet_cross_shard_messages_total"); got != res.CrossShard || got == 0 {
		t.Errorf("fleet_cross_shard_messages_total = %d, result says %d", got, res.CrossShard)
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
