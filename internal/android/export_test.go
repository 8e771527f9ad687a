package android

// Tests read one app's spans; production exports them all (Spans).

// SpansFor returns the closed spans with the given name.
func (l *ActivityLog) SpansFor(name string) []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Span
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
