package energy

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pogo/internal/vclock"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeterIntegratesConstantPower(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.Set("cpu", 0.2)
	clk.Advance(10 * time.Second)
	if e := m.Energy(); !almost(e, 2.0) {
		t.Errorf("Energy = %v, want 2.0 J", e)
	}
}

func TestMeterStepChanges(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.Set("modem", 0.8)
	clk.Advance(5 * time.Second) // 4 J
	m.Set("modem", 0.25)
	clk.Advance(10 * time.Second) // 2.5 J
	m.Set("modem", 0)
	clk.Advance(100 * time.Second) // 0 J
	if e := m.Energy(); !almost(e, 6.5) {
		t.Errorf("Energy = %v, want 6.5 J", e)
	}
}

func TestMeterMultipleComponents(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.Set("base", 0.01)
	m.Set("cpu", 0.2)
	if p := m.Power(); !almost(p, 0.21) {
		t.Errorf("Power = %v", p)
	}
	clk.Advance(time.Second)
	m.Set("cpu", 0)
	clk.Advance(time.Second)
	if e := m.Energy(); !almost(e, 0.22) {
		t.Errorf("Energy = %v, want 0.22", e)
	}
	if cp := m.ComponentPower("base"); !almost(cp, 0.01) {
		t.Errorf("ComponentPower(base) = %v", cp)
	}
}

func TestMeterAdd(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.Add("x", 0.1)
	m.Add("x", 0.2)
	if p := m.Power(); !almost(p, 0.3) {
		t.Errorf("Power = %v, want 0.3", p)
	}
	m.Add("x", -0.5) // clamps to 0
	if p := m.Power(); p != 0 {
		t.Errorf("Power = %v, want 0", p)
	}
}

func TestMeterNegativeClamps(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.Set("x", -5)
	if p := m.Power(); p != 0 {
		t.Errorf("Power = %v, want 0", p)
	}
}

func TestMeterReset(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.Set("x", 1)
	clk.Advance(time.Second)
	m.Reset()
	if e := m.Energy(); e != 0 {
		t.Errorf("Energy after reset = %v", e)
	}
	clk.Advance(time.Second)
	if e := m.Energy(); !almost(e, 1) {
		t.Errorf("Energy = %v, want 1 (levels preserved across reset)", e)
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	clk := vclock.NewSim()
	m := NewMeter(clk)
	m.StartTrace()
	m.Set("x", 0.5)
	clk.Advance(2 * time.Second)
	m.Set("x", 0)
	trace := m.StopTrace()
	// Initial zero sample and the 0.5 sample coincide at t=0 (merged), then
	// the zero sample at t=2.
	if len(trace) != 2 {
		t.Fatalf("trace = %+v, want 2 samples", trace)
	}
	if !almost(trace[0].Watts, 0.5) || !almost(trace[1].Watts, 0) {
		t.Errorf("trace = %+v", trace)
	}
	if got := TraceEnergy(trace, clk.Now().Add(-2*time.Second), clk.Now()); !almost(got, 1.0) {
		t.Errorf("TraceEnergy = %v, want 1.0", got)
	}
}

func TestTraceEnergyClipping(t *testing.T) {
	start := vclock.SimEpoch
	trace := []Sample{
		{At: start, Watts: 1.0},
		{At: start.Add(10 * time.Second), Watts: 0},
	}
	got := TraceEnergy(trace, start.Add(5*time.Second), start.Add(20*time.Second))
	if !almost(got, 5.0) {
		t.Errorf("TraceEnergy = %v, want 5.0", got)
	}
	if e := TraceEnergy(trace, start.Add(20*time.Second), start.Add(5*time.Second)); e != 0 {
		t.Errorf("reversed interval = %v, want 0", e)
	}
	if e := TraceEnergy(nil, start, start.Add(time.Second)); e != 0 {
		t.Errorf("empty trace = %v, want 0", e)
	}
}

func TestResample(t *testing.T) {
	start := vclock.SimEpoch
	trace := []Sample{
		{At: start, Watts: 1.0},
		{At: start.Add(time.Second), Watts: 0},
	}
	got := Resample(trace, start, start.Add(2*time.Second), 500*time.Millisecond)
	if len(got) != 4 {
		t.Fatalf("Resample returned %d buckets", len(got))
	}
	want := []float64{1, 1, 0, 0}
	for i, s := range got {
		if !almost(s.Watts, want[i]) {
			t.Errorf("bucket %d = %v, want %v", i, s.Watts, want[i])
		}
	}
	if r := Resample(trace, start, start, time.Second); r != nil {
		t.Error("degenerate interval should return nil")
	}
}

func TestRenderTrace(t *testing.T) {
	start := vclock.SimEpoch
	trace := []Sample{{At: start, Watts: 0.8}, {At: start.Add(time.Second), Watts: 0.2}}
	out := RenderTrace(trace, start, 40)
	if !strings.Contains(out, "800 mW") || !strings.Contains(out, "200 mW") {
		t.Errorf("RenderTrace output missing levels:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("RenderTrace lines = %d", len(lines))
	}
}

// Property: energy accumulated over a random schedule of Set calls equals
// the sum over the step function computed independently.
func TestPropertyMeterMatchesManualIntegration(t *testing.T) {
	type step struct {
		DtMillis int64
		MilliW   int64
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(20)
			steps := make([]step, n)
			for i := range steps {
				steps[i] = step{DtMillis: int64(r.Intn(10000)), MilliW: int64(r.Intn(2000))}
			}
			args[0] = reflect.ValueOf(steps)
		},
	}
	prop := func(steps []step) bool {
		clk := vclock.NewSim()
		m := NewMeter(clk)
		manual := 0.0
		cur := 0.0
		for _, s := range steps {
			dt := time.Duration(s.DtMillis) * time.Millisecond
			manual += cur * dt.Seconds()
			clk.Advance(dt)
			cur = float64(s.MilliW) / 1000
			m.Set("x", cur)
		}
		return math.Abs(m.Energy()-manual) < 1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: TraceEnergy over adjacent intervals is additive.
func TestPropertyTraceEnergyAdditive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(10)
			watts := make([]float64, n)
			for i := range watts {
				watts[i] = float64(r.Intn(1000)) / 1000
			}
			args[0] = reflect.ValueOf(watts)
			args[1] = reflect.ValueOf(int64(1 + r.Intn(5000)))
		},
	}
	prop := func(watts []float64, midMillis int64) bool {
		start := vclock.SimEpoch
		trace := make([]Sample, len(watts))
		for i, w := range watts {
			trace[i] = Sample{At: start.Add(time.Duration(i) * time.Second), Watts: w}
		}
		end := start.Add(10 * time.Second)
		mid := start.Add(time.Duration(midMillis) * time.Millisecond)
		if mid.After(end) {
			mid = end
		}
		whole := TraceEnergy(trace, start, end)
		parts := TraceEnergy(trace, start, mid) + TraceEnergy(trace, mid, end)
		return math.Abs(whole-parts) < 1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
