package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pogo/internal/msg"
	"pogo/internal/script"
	"pogo/internal/script/scripts"
)

func place(aps ...string) map[string]float64 {
	m := make(map[string]float64, len(aps))
	for i, ap := range aps {
		m[ap] = 1 - float64(i)*0.1
	}
	return m
}

func dwell(t0 float64, n int, aps map[string]float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{T: t0 + float64(i)*60000, APs: aps}
	}
	return out
}

func TestDistance(t *testing.T) {
	a := map[string]float64{"x": 1}
	b := map[string]float64{"x": 1}
	if d := Distance(a, b); d > 1e-12 {
		t.Errorf("identical distance = %v", d)
	}
	c := map[string]float64{"y": 1}
	if d := Distance(a, c); d != 1 {
		t.Errorf("disjoint distance = %v", d)
	}
	if d := Distance(a, map[string]float64{}); d != 1 {
		t.Errorf("empty distance = %v", d)
	}
	// Scale invariance of cosine distance.
	big := map[string]float64{"x": 10, "y": 5}
	small := map[string]float64{"x": 2, "y": 1}
	if d := Distance(big, small); d > 1e-12 {
		t.Errorf("scaled distance = %v", d)
	}
}

func TestSingleDwellDetected(t *testing.T) {
	home := place("h1", "h2", "h3")
	away := place("a1", "a2")
	var trace []Sample
	trace = append(trace, dwell(0, 20, home)...)
	trace = append(trace, dwell(20*60000, 6, away)...)
	got := Run(DefaultParams(), trace, false)
	if len(got) != 1 {
		t.Fatalf("clusters = %d, want 1", len(got))
	}
	c := got[0]
	if c.Enter != 0 {
		t.Errorf("Enter = %v", c.Enter)
	}
	if c.Exit != 19*60000 {
		t.Errorf("Exit = %v", c.Exit)
	}
	if c.Samples != 20 {
		t.Errorf("Samples = %d", c.Samples)
	}
	if _, ok := c.APs["h1"]; !ok {
		t.Errorf("characterization = %v", c.APs)
	}
}

func TestMultipleDwells(t *testing.T) {
	home := place("h1", "h2")
	office := place("o1", "o2", "o3")
	noise := place("n1")
	var trace []Sample
	trace = append(trace, dwell(0, 10, home)...)
	trace = append(trace, dwell(1e6, 3, noise)...) // too short to report
	trace = append(trace, dwell(2e6, 15, office)...)
	trace = append(trace, dwell(4e6, 8, home)...)
	trace = append(trace, dwell(6e6, 6, noise)...)
	got := Run(DefaultParams(), trace, false)
	if len(got) != 3 {
		t.Fatalf("clusters = %d, want 3 (home, office, home)", len(got))
	}
	if _, ok := got[0].APs["h1"]; !ok {
		t.Error("first cluster not home")
	}
	if _, ok := got[1].APs["o1"]; !ok {
		t.Error("second cluster not office")
	}
}

func TestShortDwellSuppressed(t *testing.T) {
	var trace []Sample
	trace = append(trace, dwell(0, 4, place("x1", "x2"))...) // < MinCluster
	trace = append(trace, dwell(1e6, 6, place("y1"))...)
	got := Run(DefaultParams(), trace, false)
	for _, c := range got {
		if _, ok := c.APs["x1"]; ok {
			t.Error("sub-threshold dwell reported")
		}
	}
}

func TestFlushEmitsOpenDwell(t *testing.T) {
	trace := dwell(0, 10, place("h1", "h2"))
	if got := Run(DefaultParams(), trace, false); len(got) != 0 {
		t.Fatalf("unterminated dwell reported without flush: %d", len(got))
	}
	got := Run(DefaultParams(), trace, true)
	if len(got) != 1 || got[0].Samples != 10 {
		t.Fatalf("flush result = %+v", got)
	}
}

func TestNoisyRSSIStillClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := place("h1", "h2", "h3", "h4")
	var trace []Sample
	for i := 0; i < 30; i++ {
		aps := make(map[string]float64, len(base))
		for k, v := range base {
			aps[k] = math.Max(0, math.Min(1, v+rng.NormFloat64()*0.08))
		}
		trace = append(trace, Sample{T: float64(i) * 60000, APs: aps})
	}
	trace = append(trace, dwell(31*60000, 6, place("z1"))...)
	got := Run(DefaultParams(), trace, false)
	if len(got) != 1 {
		t.Fatalf("clusters = %d, want 1 despite RSSI noise", len(got))
	}
	if got[0].Samples < 25 {
		t.Errorf("Samples = %d, noise fragmented the dwell", got[0].Samples)
	}
}

func TestStateRestore(t *testing.T) {
	home := place("h1", "h2")
	c1 := New(DefaultParams(), nil)
	for _, s := range dwell(0, 10, home) {
		c1.Add(s)
	}
	if !c1.Open() {
		t.Fatal("no open dwell")
	}
	win, open := c1.State()

	// "Reboot with freeze/thaw".
	c2 := New(DefaultParams(), nil)
	c2.Restore(win, open)
	for _, s := range dwell(2e6, 6, place("x1")) {
		c2.Add(s)
	}
	got := c2.Clusters()
	if len(got) != 1 || got[0].Enter != 0 {
		t.Fatalf("restored run = %+v", got)
	}

	// Reboot WITHOUT freeze/thaw: the dwell's first half is lost, exactly
	// the §5.3 failure mode (later start time).
	c3 := New(DefaultParams(), nil)
	for _, s := range dwell(10*60000, 10, home) { // second half only
		c3.Add(s)
	}
	for _, s := range dwell(2e6, 6, place("x1")) {
		c3.Add(s)
	}
	got3 := c3.Clusters()
	if len(got3) != 1 || got3[0].Enter <= 0 {
		t.Fatalf("lossy run = %+v", got3)
	}
	if got3[0].Enter != 10*60000 {
		t.Errorf("Enter = %v, want the truncated start", got3[0].Enter)
	}
}

func TestMatchClusters(t *testing.T) {
	home := place("h1", "h2")
	office := place("o1")
	truth := []Cluster{
		{Enter: 0, Exit: 100, APs: home},
		{Enter: 200, Exit: 300, APs: office},
		{Enter: 400, Exit: 500, APs: home},
	}
	reported := []Cluster{
		{Enter: 0, Exit: 100, APs: home},     // exact
		{Enter: 250, Exit: 300, APs: office}, // partial (late start)
	}
	kinds := MatchClusters(truth, reported, 0.35, 1)
	want := []MatchKind{Exact, Partial, NoMatch}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	matchPct, partialPct := MatchStats(kinds)
	if math.Abs(matchPct-33.333) > 0.01 || math.Abs(partialPct-66.666) > 0.01 {
		t.Errorf("stats = %v, %v", matchPct, partialPct)
	}
	if m, p := MatchStats(nil); m != 100 || p != 100 {
		t.Error("empty MatchStats")
	}
}

func TestSortClusters(t *testing.T) {
	cs := []Cluster{{Enter: 5}, {Enter: 1}, {Enter: 3}}
	SortClusters(cs)
	if cs[0].Enter != 1 || cs[2].Enter != 5 {
		t.Errorf("sorted = %+v", cs)
	}
}

// The critical agreement test: the Go reference and clustering.js must
// produce identical clusters on identical input (§5.3's comparison is
// meaningless otherwise).
func TestAgreementWithClusteringJS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	places := []map[string]float64{
		place("h1", "h2", "h3"),
		place("o1", "o2", "o3", "o4"),
		place("c1", "c2"),
	}
	var trace []Sample
	tm := 0.0
	for leg := 0; leg < 6; leg++ {
		p := places[leg%len(places)]
		n := 6 + rng.Intn(20)
		for i := 0; i < n; i++ {
			aps := make(map[string]float64, len(p))
			for k, v := range p {
				aps[k] = math.Max(0.05, math.Min(1, v+rng.NormFloat64()*0.05))
			}
			trace = append(trace, Sample{T: tm, APs: aps})
			tm += 60000
		}
		// Transit: a couple of scans seeing nothing recognizable.
		for i := 0; i < 2+rng.Intn(3); i++ {
			trace = append(trace, Sample{T: tm, APs: map[string]float64{
				fmt.Sprintf("transit-%d", rng.Intn(1e6)): 0.5,
			}})
			tm += 60000
		}
	}

	goClusters := Run(DefaultParams(), trace, false)
	if len(goClusters) < 4 {
		t.Fatalf("weak test input: only %d clusters", len(goClusters))
	}

	jsClusters := runClusteringJS(t, trace)
	if len(jsClusters) != len(goClusters) {
		t.Fatalf("js=%d go=%d clusters", len(jsClusters), len(goClusters))
	}
	for i := range goClusters {
		g, j := goClusters[i], jsClusters[i]
		if g.Enter != j.Enter || g.Exit != j.Exit || g.Samples != j.Samples {
			t.Errorf("cluster %d: go=%+v js=%+v", i, g, j)
		}
		if Distance(g.APs, j.APs) > 1e-9 {
			t.Errorf("cluster %d characterization differs", i)
		}
	}
}

// jsHost adapts the script test host to capture clusters.
type jsHost struct {
	clusters []Cluster
	handler  func(msg.Value, string)
	frozen   msg.Value
	hasState bool
}

func (h *jsHost) Publish(channel string, m msg.Value) error {
	if channel != "clusters" {
		return nil
	}
	r, err := msg.Encode(m) // one tree, whatever encoded nodes the script kept
	if err != nil {
		return err
	}
	mm := r.Map()
	aps := make(map[string]float64)
	for k, v := range mm["aps"].(msg.Map) {
		aps[k] = v.(float64)
	}
	h.clusters = append(h.clusters, Cluster{
		Enter:   mm["enter"].(float64),
		Exit:    mm["exit"].(float64),
		Samples: int(mm["samples"].(float64)),
		APs:     aps,
	})
	return nil
}

func (h *jsHost) Subscribe(channel string, params msg.Map, handler func(msg.Value, string)) (func(), func(), error) {
	h.handler = handler
	return func() {}, func() {}, nil
}
func (h *jsHost) Print(string, string)       {}
func (h *jsHost) Log(string, string, string) {}
func (h *jsHost) Freeze(_ string, v msg.Value) error {
	h.frozen = v
	h.hasState = true
	return nil
}
func (h *jsHost) Thaw(string) (msg.Value, bool)    { return h.frozen, h.hasState }
func (h *jsHost) SetTimeout(func(), time.Duration) {}
func (h *jsHost) ReportError(_ string, err error)  { panic(err) }

var _ script.Host = (*jsHost)(nil)

func runClusteringJS(t *testing.T, trace []Sample) []Cluster {
	t.Helper()
	h := &jsHost{}
	src := scripts.MustSource("clustering.js")
	s, err := script.New("clustering.js", src, h, script.Config{StepBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, sm := range trace {
		aps := msg.Map{}
		for k, v := range sm.APs {
			aps[k] = v
		}
		h.handler(msg.Map{"t": sm.T, "aps": aps}, "")
	}
	return h.clusters
}

// Property: every reported cluster respects MinCluster and has Enter<=Exit.
func TestPropertyClusterInvariants(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var trace []Sample
		tm := 0.0
		for leg := 0; leg < 4; leg++ {
			p := place(fmt.Sprintf("p%d-a", leg%2), fmt.Sprintf("p%d-b", leg%2))
			for i := 0; i < rng.Intn(15); i++ {
				trace = append(trace, Sample{T: tm, APs: p})
				tm += 60000
			}
			trace = append(trace, Sample{T: tm, APs: map[string]float64{"t": 1}})
			tm += 60000
		}
		params := DefaultParams()
		for _, c := range Run(params, trace, true) {
			if c.Samples < params.MinCluster || c.Enter > c.Exit || len(c.APs) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
