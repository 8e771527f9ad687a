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
	if err := ref.Err(); err != nil {
		t.Fatalf("reference run: %v", err)
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
			if err := res.Err(); err != nil {
				t.Errorf("shards=%d procs=%d: %v", shards, procs, err)
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
	if err := res.Err(); err != nil {
		t.Fatal(err)
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

// TestFleetBytesPerPhone is the per-device memory diet: the canonical
// 2 000-phone, 4-shard fleet must pass its delivery audit within a live heap
// of 2 725 B per phone and 23.1 allocations per delivery: 2 213 B per phone
// measured plus 512 B, because the live-heap figure jitters a couple of
// hundred bytes with GC timing, and 20.09 allocations measured plus 15 %.
// Reverting any one of the recycled structures costs kilobytes per phone.
// The run's delivery-log hash is pinned in fleet.txtar.
func TestFleetBytesPerPhone(t *testing.T) {
	const bytesPerPhoneCeiling = 2725
	const allocsPerDeliveryCeiling = 23.1
	res := Fleet(FleetScenario(1, 2000, 4))
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.BytesPerPhone <= 0 || res.BytesPerPhone > bytesPerPhoneCeiling {
		t.Errorf("fleet_bytes_per_phone = %.0f, ceiling %d", res.BytesPerPhone, bytesPerPhoneCeiling)
	}
	if res.AllocsPerDelivery > allocsPerDeliveryCeiling {
		t.Errorf("allocs_per_delivery = %.2f, ceiling %.1f", res.AllocsPerDelivery, allocsPerDeliveryCeiling)
	}
	if res.CPUSeconds <= 0 {
		t.Errorf("cpu_seconds not measured: %v", res.CPUSeconds)
	}
	t.Logf("fleet_bytes_per_phone %.0f, allocs_per_delivery %.2f", res.BytesPerPhone, res.AllocsPerDelivery)
}
