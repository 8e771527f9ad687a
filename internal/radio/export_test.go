package radio

// Tests read a Wi-Fi link's traffic counters; production reads the modem's.

// Stats returns the interface's traffic counters.
func (w *Wifi) Stats() TrafficStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
