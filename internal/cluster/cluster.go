// Package cluster is the Go reference implementation of the paper's
// modified DBSCAN place-clustering algorithm (§4.1): a sliding window of 60
// samples supplies core objects, the distance metric is one minus the
// cosine coefficient of two scans' normalized RSSI vectors, and the open
// cluster closes as soon as a sample arrives that is not reachable from it.
// The closed cluster is characterized by the sample nearest to the cluster
// mean.
//
// The semantics deliberately mirror clustering.js line for line: the §5.3
// evaluation compares what the on-phone script reported against this
// implementation run over the raw ground-truth traces, and the match
// percentages of Table 4 are only meaningful if the two agree on identical
// input.
package cluster

import (
	"math"
)

// Sample is one sanitized Wi-Fi scan: timestamp (Unix milliseconds, as the
// scripts see it) and a sparse BSSID → normalized-signal vector.
type Sample struct {
	T   float64
	APs map[string]float64
}

// Cluster is a closed dwell: entry/exit times, the number of member
// samples, and the characterizing AP vector.
type Cluster struct {
	Enter   float64
	Exit    float64
	Samples int
	APs     map[string]float64
}

// Params are the algorithm's tuning constants. Defaults match clustering.js.
type Params struct {
	Window     int     // sliding window length (samples)
	Eps        float64 // neighbourhood radius in cosine distance
	MinPts     int     // neighbours (incl. self) for a core object
	MinCluster int     // samples needed before a closed cluster is reported
}

// DefaultParams returns the constants used by clustering.js.
func DefaultParams() Params {
	return Params{Window: 60, Eps: 0.35, MinPts: 4, MinCluster: 5}
}

// distance is the cosine-coefficient distance between two sparse vectors:
// 0 = identical AP environment, 1 = disjoint.
func distance(a, b map[string]float64) float64 {
	na, nb := norm(a), norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	cos := dot(a, b) / (na * nb)
	if cos > 1 {
		cos = 1
	}
	return 1 - cos
}

func dot(a, b map[string]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	sum := 0.0
	for k, va := range a {
		if vb, ok := b[k]; ok {
			sum += va * vb
		}
	}
	return sum
}

func norm(a map[string]float64) float64 {
	sum := 0.0
	for _, v := range a {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// clusterer consumes a stream of samples and emits closed clusters. The
// zero value is not usable; construct with newClusterer.
type clusterer struct {
	params Params
	window []Sample
	open   []Sample
	closed []Cluster
	emit   func(Cluster)
}

// newClusterer returns a streaming clusterer. emit (may be nil) is called for every
// closed cluster in addition to it being recorded.
func newClusterer(params Params, emit func(Cluster)) *clusterer {
	if params.Window <= 0 {
		params = DefaultParams()
	}
	return &clusterer{params: params, emit: emit}
}

// add feeds one sample through the algorithm.
func (c *clusterer) add(s Sample) {
	c.window = append(c.window, s)
	if len(c.window) > c.params.Window {
		c.window = c.window[1:]
	}
	if c.open != nil {
		if c.reachable(s) {
			c.open = append(c.open, s)
		} else {
			c.closeOpen()
		}
	}
	if c.open == nil && c.isCore(s) {
		c.openCluster(s)
	}
}

// flush closes any open cluster (end of trace). The paper's script does NOT
// do this — a dwell in progress at the end of the experiment is simply cut
// off — so Table 4 post-processing calls flush only on the ground truth
// when explicitly requested.
func (c *clusterer) flush() {
	if c.open != nil {
		c.closeOpen()
	}
}

// clusters returns the closed clusters so far.
func (c *clusterer) clusters() []Cluster {
	out := make([]Cluster, len(c.closed))
	copy(out, c.closed)
	return out
}

func (c *clusterer) isCore(s Sample) bool {
	neighbours := 0
	for i := range c.window {
		if distance(s.APs, c.window[i].APs) <= c.params.Eps {
			neighbours++
			if neighbours >= c.params.MinPts {
				return true
			}
		}
	}
	return false
}

func (c *clusterer) reachable(s Sample) bool {
	for i := len(c.open) - 1; i >= 0; i-- {
		if distance(s.APs, c.open[i].APs) <= c.params.Eps {
			return true
		}
	}
	return false
}

func (c *clusterer) openCluster(core Sample) {
	var members []Sample
	for i := range c.window {
		if distance(core.APs, c.window[i].APs) <= c.params.Eps {
			members = append(members, c.window[i])
		}
	}
	c.open = members
}

func (c *clusterer) closeOpen() {
	open := c.open
	c.open = nil
	if len(open) < c.params.MinCluster {
		return
	}
	rep := characterize(open)
	cl := Cluster{
		Enter:   open[0].T,
		Exit:    open[len(open)-1].T,
		Samples: len(open),
		APs:     rep.APs,
	}
	c.closed = append(c.closed, cl)
	if c.emit != nil {
		c.emit(cl)
	}
}

// characterize selects the sample nearest to the mean of all samples — the
// paper's footnote 6.
func characterize(samples []Sample) Sample {
	mean := mean(samples)
	best := samples[0]
	bestDist := 2.0
	for _, s := range samples {
		if d := distance(s.APs, mean); d < bestDist {
			bestDist = d
			best = s
		}
	}
	return best
}

// mean computes the element-wise mean AP vector of a set of samples.
func mean(samples []Sample) map[string]float64 {
	mean := make(map[string]float64)
	n := float64(len(samples))
	for _, s := range samples {
		for k, v := range s.APs {
			mean[k] += v / n
		}
	}
	return mean
}

// Run executes the algorithm over a full trace and returns the closed
// clusters; flush controls whether a trailing open dwell is emitted.
func Run(params Params, trace []Sample, flush bool) []Cluster {
	c := newClusterer(params, nil)
	for _, s := range trace {
		c.add(s)
	}
	if flush {
		c.flush()
	}
	return c.clusters()
}

// MatchKind classifies how a reported cluster relates to a ground-truth one
// (the Table 4 Match / Partial columns).
type MatchKind int

// Match classifications.
const (
	matchNone    MatchKind = iota + 1
	matchExact             // same enter and exit times, same place
	matchPartial           // same place, overlapping interval, truncated ends
)

// MatchClusters compares reported clusters against ground truth. A report
// matches a truth cluster exactly when both timestamps agree (within slack
// milliseconds) and the AP vectors are within eps; it matches partially
// when the intervals overlap and the places agree.
func MatchClusters(truth, reported []Cluster, eps, slack float64) []MatchKind {
	used := make([]bool, len(reported))
	out := make([]MatchKind, len(truth))
	for i, tc := range truth {
		out[i] = matchNone
		bestIdx := -1
		best := matchNone
		for j, rc := range reported {
			if used[j] {
				continue
			}
			if distance(tc.APs, rc.APs) > eps {
				continue
			}
			overlap := math.Min(tc.Exit, rc.Exit) - math.Max(tc.Enter, rc.Enter)
			if overlap <= 0 {
				continue
			}
			kind := matchPartial
			if math.Abs(tc.Enter-rc.Enter) <= slack && math.Abs(tc.Exit-rc.Exit) <= slack {
				kind = matchExact
			}
			if bestIdx == -1 || kind == matchExact && best == matchPartial {
				bestIdx, best = j, kind
			}
			if best == matchExact {
				break
			}
		}
		if bestIdx >= 0 {
			used[bestIdx] = true
			out[i] = best
		}
	}
	return out
}

// MatchStats summarizes a MatchKind list into the Table 4 percentages:
// match counts only exact matches, partial counts exact + partial.
func MatchStats(kinds []MatchKind) (matchPct, partialPct float64) {
	if len(kinds) == 0 {
		return 100, 100
	}
	exact, partial := 0, 0
	for _, k := range kinds {
		switch k {
		case matchExact:
			exact++
			partial++
		case matchPartial:
			partial++
		}
	}
	n := float64(len(kinds))
	return 100 * float64(exact) / n, 100 * float64(partial) / n
}
