package core

import "sync"

// LogStore is the node's permanent text storage behind the scripts' log()
// and logTo() functions — and, on a collector, the "database" that
// collect.js pushes annotated places into.
type LogStore struct {
	mu       sync.Mutex
	logs     map[string][]string
	prints   []printLine
	onAppend func(logName, line string)
}

// printLine is one script debug print.
type printLine struct {
	Script string
	Text   string
}

// newLogStore returns empty storage.
func newLogStore() *LogStore {
	return &LogStore{logs: make(map[string][]string)}
}

// SetOnAppend registers fn to observe every line appended to any log.
//
// Contract: fn is called synchronously on the appending goroutine, after the
// line is stored, outside the store's mutex — so fn may safely call back
// into the LogStore (Lines, append) but must be quick and must not block,
// or it stalls the script that logged. At most one observer is held; a
// later call replaces the previous one, and nil removes it. Set it before
// scripts run: lines appended concurrently with SetOnAppend may or may not
// be observed.
func (l *LogStore) SetOnAppend(fn func(logName, line string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onAppend = fn
}

// append adds a line to the named log.
func (l *LogStore) append(logName, line string) {
	l.mu.Lock()
	l.logs[logName] = append(l.logs[logName], line)
	fn := l.onAppend
	l.mu.Unlock()
	if fn != nil {
		fn(logName, line)
	}
}

// Lines returns a copy of the named log.
func (l *LogStore) Lines(logName string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.logs[logName]))
	copy(out, l.logs[logName])
	return out
}

// print records a script debug print (bounded to the most recent 1000).
func (l *LogStore) print(script, text string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prints = append(l.prints, printLine{Script: script, Text: text})
	if len(l.prints) > 1000 {
		l.prints = l.prints[len(l.prints)-1000:]
	}
}
