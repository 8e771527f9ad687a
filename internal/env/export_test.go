package env

import "time"

// Tests check the generated schedules through their dwells; the
// experiments read scans, not legs.

// Dwells returns the legs at real places lasting at least minDur — the
// ground-truth sessions of §5.3.
func (s *Schedule) Dwells(minDur time.Duration) []Leg {
	var out []Leg
	for _, l := range s.Legs {
		if l.Place != nil && l.End.Sub(l.Start) >= minDur {
			out = append(out, l)
		}
	}
	return out
}
