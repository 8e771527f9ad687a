package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchTrace(n int) []Sample {
	rng := rand.New(rand.NewSource(3))
	places := [][]string{
		{"h1", "h2", "h3"}, {"o1", "o2", "o3", "o4"}, {"c1", "c2"},
	}
	out := make([]Sample, 0, n)
	tm := 0.0
	for len(out) < n {
		p := places[rng.Intn(len(places))]
		stay := 5 + rng.Intn(30)
		for i := 0; i < stay && len(out) < n; i++ {
			aps := make(map[string]float64, len(p))
			for _, k := range p {
				aps[k] = 0.5 + rng.Float64()*0.5
			}
			out = append(out, Sample{T: tm, APs: aps})
			tm += 60000
		}
		out = append(out, Sample{T: tm, APs: map[string]float64{
			fmt.Sprintf("x%d", rng.Intn(1e6)): 0.4,
		}})
		tm += 60000
	}
	return out[:n]
}

// BenchmarkClusterDay processes one simulated day of scans (1440 samples).
func BenchmarkClusterDay(b *testing.B) {
	trace := benchTrace(1440)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(DefaultParams(), trace, true)
	}
}

func BenchmarkDistanceSparse(b *testing.B) {
	x := map[string]float64{"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3}
	y := map[string]float64{"b": 0.8, "c": 0.6, "e": 0.4}
	for i := 0; i < b.N; i++ {
		distance(x, y)
	}
}
