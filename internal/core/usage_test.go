package core

import (
	"math"
	"testing"
)

func TestPowerModelEstimateArithmetic(t *testing.T) {
	m := PowerModel{JoulesPerMegaStep: 0.5, JoulesPerPublish: 2}
	cases := []struct {
		steps     int64
		publishes int
		want      float64
	}{
		{0, 0, 0},
		{1e6, 0, 0.5},
		{0, 3, 6},
		{2e6, 1, 3},
		{500_000, 4, 8.25},
	}
	for _, c := range cases {
		if got := m.estimate(c.steps, c.publishes); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Estimate(%d, %d) = %v, want %v", c.steps, c.publishes, got, c.want)
		}
	}

	def := DefaultPowerModel()
	if def.JoulesPerMegaStep <= 0 || def.JoulesPerPublish <= 0 {
		t.Errorf("default model has non-positive constants: %+v", def)
	}
	// A publish costs far more than an interpreter step: it is amortized
	// radio energy, not CPU.
	if def.JoulesPerPublish <= def.JoulesPerMegaStep {
		t.Errorf("publish (%v J) should dominate a megastep (%v J)",
			def.JoulesPerPublish, def.JoulesPerMegaStep)
	}
}

func TestScriptUsagesAggregationAndOrder(t *testing.T) {
	r := newRig(t)

	// chatty publishes three messages; quiet runs a few statements and
	// publishes nothing, so chatty must rank first under any positive model.
	if err := r.col.DeployLocal("chatty.js", `
		publish('x', { n: 1 });
		publish('x', { n: 2 });
		publish('x', { n: 3 });
	`); err != nil {
		t.Fatal(err)
	}
	if err := r.col.DeployLocal("quiet.js", `var a = 1; var b = a + 1;`); err != nil {
		t.Fatal(err)
	}

	usages := r.col.ScriptUsages(DefaultPowerModel())
	if len(usages) != 2 {
		t.Fatalf("usages = %d entries, want 2: %+v", len(usages), usages)
	}
	if usages[0].Name != "chatty.js" || usages[1].Name != "quiet.js" {
		t.Fatalf("order = [%s %s], want chatty.js first", usages[0].Name, usages[1].Name)
	}
	if usages[0].EstimatedJoules < usages[1].EstimatedJoules {
		t.Error("usages not sorted by estimated energy, highest first")
	}

	chatty := usages[0]
	if chatty.Context != "" {
		t.Errorf("collector-local context = %q, want empty", chatty.Context)
	}
	if chatty.Publishes != 3 {
		t.Errorf("chatty publishes = %d, want 3", chatty.Publishes)
	}
	if chatty.Entries < 1 || chatty.Steps <= 0 {
		t.Errorf("chatty entries/steps = %d/%d, want positive", chatty.Entries, chatty.Steps)
	}
	wantJ := DefaultPowerModel().estimate(chatty.Steps, chatty.Publishes)
	if math.Abs(chatty.EstimatedJoules-wantJ) > 1e-9 {
		t.Errorf("chatty joules = %v, want %v (model applied to its counters)", chatty.EstimatedJoules, wantJ)
	}

	quiet := usages[1]
	if quiet.Publishes != 0 || quiet.Errors != 0 {
		t.Errorf("quiet publishes/errors = %d/%d, want 0/0", quiet.Publishes, quiet.Errors)
	}

	// Equal energy (two idle scripts) falls back to name order.
	if err := r.col.DeployLocal("zz-idle.js", `var z = 0;`); err != nil {
		t.Fatal(err)
	}
	if err := r.col.DeployLocal("aa-idle.js", `var z = 0;`); err != nil {
		t.Fatal(err)
	}
	usages = r.col.ScriptUsages(PowerModel{}) // zero model: every script ties at 0 J
	names := make([]string, len(usages))
	for i, u := range usages {
		names[i] = u.Name
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("zero-model tie not sorted by name: %v", names)
		}
	}
}
