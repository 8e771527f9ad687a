package sensors

import "time"

// Tests read a sensor's sampling state under its lock.

// Active reports whether the sensor is currently sampling.
func (p *periodicCore) Active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stop != nil
}

// Interval returns the current sampling interval (0 when inactive).
func (p *periodicCore) Interval() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.interval
}
