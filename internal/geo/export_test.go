package geo

// Tests read the geocoder's lookup counters; nothing exports them.

// Stats returns (lookups, misses).
func (s *Service) Stats() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookups, s.misses
}
