package core

import "sync"

// LogStore is the node's permanent text storage behind the scripts' log()
// and logTo() functions — and, on a collector, the "database" that
// collect.js pushes annotated places into.
type LogStore struct {
	mu       sync.Mutex
	logs     map[string]*lines
	onAppend func(logName, line string)
}

// logBlock is the number of lines a block of a log holds.
const logBlock = 1024

// lines is one log: its lines in fixed blocks of logBlock, so that a line,
// once stored, is never copied again as the log grows. The strings are kept
// as they were handed in.
type lines struct {
	blocks []*[logBlock]string
	n      int
}

func (l *lines) add(line string) {
	if l.n%logBlock == 0 {
		l.blocks = append(l.blocks, new([logBlock]string))
	}
	l.blocks[l.n/logBlock][l.n%logBlock] = line
	l.n++
}

// newLogStore returns empty storage.
func newLogStore() *LogStore {
	return &LogStore{logs: make(map[string]*lines)}
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
	log := l.logs[logName]
	if log == nil {
		log = &lines{}
		l.logs[logName] = log
	}
	log.add(line)
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
	log := l.logs[logName]
	if log == nil {
		return []string{}
	}
	out := make([]string, 0, log.n)
	for i, b := range log.blocks {
		out = append(out, b[:min(logBlock, log.n-i*logBlock)]...)
	}
	return out
}
