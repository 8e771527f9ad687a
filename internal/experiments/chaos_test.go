package experiments

import (
	"reflect"
	"testing"
	"time"
)

// small shrinks a scenario to test size while keeping its fault mix.
func small(cfg ChaosConfig) ChaosConfig {
	cfg.Phones = 8
	cfg.MessagesPerPhone = 6
	cfg.CommandsPerPhone = 2
	cfg.Window = 2 * time.Minute
	cfg.Step = 2 * time.Second
	cfg.RetryAfter = 6 * time.Second
	if cfg.MeanUp > 0 {
		cfg.MeanUp, cfg.MeanDown = 30*time.Second, 10*time.Second
	}
	return cfg
}

func TestChaosDeterministicSameSeed(t *testing.T) {
	cfg := small(ChaosScenarios(42)[2].Config) // heavy: churn + partitions + all faults
	a := Chaos("heavy", cfg)
	b := Chaos("heavy", cfg)
	if a.LogSHA256 != b.LogSHA256 {
		t.Errorf("same seed, different delivery logs: %s vs %s", a.LogSHA256, b.LogSHA256)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		t.Error("same seed produced diverging delivery logs")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestChaosDifferentSeedsDiverge(t *testing.T) {
	cfg1 := small(ChaosScenarios(1)[1].Config)
	cfg2 := small(ChaosScenarios(2)[1].Config)
	a := Chaos("medium", cfg1)
	b := Chaos("medium", cfg2)
	if a.LogSHA256 == b.LogSHA256 {
		t.Error("different seeds produced identical delivery logs")
	}
}

// The headline guarantee: under every fault level, eventual connectivity
// means exactly-once in-order delivery of everything — nothing lost, nothing
// duplicated, outboxes fully drained.
func TestChaosZeroLossZeroDup(t *testing.T) {
	for _, sc := range ChaosScenarios(7) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Chaos(sc.Name, small(sc.Config))
			if res.Delivered != res.Expected {
				t.Errorf("delivered %d of %d", res.Delivered, res.Expected)
			}
			if err := res.Err(); err != nil {
				t.Error(err)
			}
			if sc.Config.Drop > 0 && res.NetDropped == 0 {
				t.Error("fault injection seems inert: nothing was dropped")
			}
		})
	}
}
