package script

import (
	"fmt"

	"pogo/internal/msg"
)

// Call invokes a named global function with message-domain arguments, the
// way a host callback enters script code, so tests can poke at script
// internals.
func (s *Script) Call(fnName string, args ...msg.Value) (msg.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn, ok := s.globals.get(fnName)
	if !ok {
		return nil, fmt.Errorf("script %s: no function %q", s.Name, fnName)
	}
	vals := make([]value, len(args))
	for i, a := range args {
		vals[i] = fromMsg(a)
	}
	in := s.in
	in.begin(s.cfg.StepBudget)
	s.stats.Entries++
	out, err := in.invoke(0, fn, undefined, vals)
	s.stats.Steps += int64(s.cfg.StepBudget - in.steps)
	if err != nil {
		s.noteErrLocked(err)
		return nil, normalizeErr(s.Name, err)
	}
	return toMsg(out)
}

// Len returns the number of properties.
func (o *object) Len() int {
	if o.viewing() {
		return o.src.Len()
	}
	return len(o.ents)
}

// toMsg is encoder.toMsg with an encoder of its own.
func toMsg(v value) (msg.Value, error) {
	var e encoder
	m, _, err := e.toMsg(v)
	return m, err
}
