package script

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"pogo/internal/msg"
)

// Host is the node-side surface a running script talks to — the whole
// sandbox boundary. The core implements it per script context; tests
// implement it directly.
type Host interface {
	// Publish sends a message on a pub/sub channel. m is the host's from here
	// on (see ToMsg): a msg.Raw when the script republishes a message it
	// received untouched, otherwise a tree built for this call — a msg.Map
	// for an object — whose nodes may be msg.Raws.
	Publish(channel string, m msg.Value) error
	// Subscribe registers a handler on a channel with optional parameters.
	// The returned release/renew functions implement the Subscription
	// object's methods. The handler receives the message and its origin
	// (the remote node it came from, or ""); the script reads a msg.Raw in
	// place (see FromMsg), which is what a host hands it; a tree is encoded
	// first.
	Subscribe(channel string, params msg.Map, handler func(m msg.Value, origin string)) (release, renew func(), err error)
	// Print emits a debug message visible on the device UI.
	Print(script, text string)
	// Log appends a line of text to permanent storage; logName "" is the
	// script's default log.
	Log(script, logName, text string)
	// Freeze persists the script's single state object, overwriting any
	// previous one (§4.4).
	Freeze(script string, v msg.Value) error
	// Thaw retrieves the frozen object; ok is false when none exists.
	Thaw(script string) (v msg.Value, ok bool)
	// SetTimeout schedules fn after delay on the node's scheduler.
	SetTimeout(fn func(), delay time.Duration)
	// ReportError is told about runtime errors in script callbacks.
	ReportError(script string, err error)
}

// Config tunes script execution.
type Config struct {
	// StepBudget is the number of interpreter steps one entry into script
	// code may consume — the analogue of the paper's 100 ms call timeout
	// (§4.5). Default 2,000,000.
	StepBudget int
	// StartupBudgetFactor multiplies the budget for the initial body run.
	// Default 10.
	StartupBudgetFactor int
}

func (c Config) withDefaults() Config {
	if c.StepBudget == 0 {
		c.StepBudget = 2_000_000
	}
	if c.StartupBudgetFactor == 0 {
		c.StartupBudgetFactor = 10
	}
	return c
}

// Script is a parsed PogoScript program bound to a host. All entries into
// script code are serialized (§4.5: JavaScript has no concurrency) and
// budget-limited. The zero value is not usable; construct with New.
type Script struct {
	Name string

	host Host
	cfg  Config
	prog *program

	mu          sync.Mutex // serializes script execution
	globals     *scope
	in          *interp // runs every entry; guarded by mu
	started     bool
	stopped     bool
	description string
	autoStart   bool
	releases    []func()
	stats       Stats
	// origins holds each recently seen delivery origin boxed as a Value, so
	// a handler's origin argument is boxed once per peer, not per message.
	origins map[string]Value
}

// maxOrigins bounds Script.origins; a full cache starts over.
const maxOrigins = 64

// Stats counts a script's activity; the per-script resource accounting of
// the paper's future work (§6) builds on these counters.
type Stats struct {
	Entries   int // calls into script code (body, handlers, timeouts)
	Errors    int
	Publishes int
	Steps     int64 // interpreter steps consumed (a proxy for CPU time)
	// DeadlineExceeded counts the calls killed by the execution budget —
	// the paper's per-call deadline (§4.5). A subset of Errors.
	DeadlineExceeded int
}

// IsBudgetError reports whether err is (or wraps) the execution-budget
// violation the interpreter raises when a call exceeds its step budget.
func IsBudgetError(err error) bool {
	if errors.Is(err, ErrBudget) {
		return true
	}
	var re *RuntimeError
	return errors.As(err, &re) && re.Msg == ErrBudget.Error()
}

// noteErrLocked classifies a failed entry into script code. Caller holds
// s.mu.
func (s *Script) noteErrLocked(err error) {
	s.stats.Errors++
	if IsBudgetError(err) {
		s.stats.DeadlineExceeded++
	}
}

// New parses source and prepares (but does not run) the script.
func New(name, source string, host Host, cfg Config) (*Script, error) {
	prog, err := parse(name, source)
	if err != nil {
		return nil, err
	}
	s := &Script{
		Name: name,
		host: host,
		cfg:  cfg.withDefaults(),
		prog: prog,
		// Scripts run on deployment unless the body opts out with a
		// top-level setAutoStart(false) — detected statically, since the
		// body has not run yet when the deployer asks (§4.4).
		autoStart: detectAutoStart(prog),
	}
	s.globals = newScope(nil)
	s.in = &interp{name: name, globals: s.globals}
	// Math.random draws from a fixed-seed source so simulated runs are
	// reproducible.
	installGlobals(s.globals, rand.New(rand.NewSource(1)))
	s.installAPI()
	return s, nil
}

// Description returns the setDescription() value, if the script ran one.
func (s *Script) Description() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.description
}

// AutoStart returns whether the script wants to run on deployment.
func (s *Script) AutoStart() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.autoStart
}

// StatsSnapshot returns the script's counters.
func (s *Script) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Start executes the script body, then its start() function if it defines
// one (the Listing 2 convention). Start may be called once.
func (s *Script) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("script %s: already started", s.Name)
	}
	s.started = true
	in := s.in
	in.begin(s.cfg.StepBudget * s.cfg.StartupBudgetFactor)
	s.stats.Entries++
	startBudget := in.steps
	defer func() { s.stats.Steps += int64(startBudget - in.steps) }()
	if err := in.exec(s.prog, s.globals); err != nil {
		s.noteErrLocked(err)
		return normalizeErr(s.Name, err)
	}
	if fn, ok := s.globals.lookup("start"); ok {
		if _, isFn := fn.(*Function); isFn {
			if _, err := in.invoke(nil, fn, Undefined, nil); err != nil {
				s.noteErrLocked(err)
				return normalizeErr(s.Name, err)
			}
		}
	}
	return nil
}

// Stop releases every subscription the script holds and bars further
// callbacks.
func (s *Script) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	releases := s.releases
	s.releases = nil
	s.mu.Unlock()
	for _, r := range releases {
		r()
	}
}

// Call invokes a named global function with message-domain arguments; used
// by tests and tooling to poke at script internals.
func (s *Script) Call(fnName string, args ...msg.Value) (msg.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn, ok := s.globals.lookup(fnName)
	if !ok {
		return nil, fmt.Errorf("script %s: no function %q", s.Name, fnName)
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = FromMsg(a)
	}
	in := s.in
	in.begin(s.cfg.StepBudget)
	s.stats.Entries++
	out, err := in.invoke(nil, fn, Undefined, vals)
	s.stats.Steps += int64(s.cfg.StepBudget - in.steps)
	if err != nil {
		s.noteErrLocked(err)
		return nil, normalizeErr(s.Name, err)
	}
	return ToMsg(out)
}

// enter runs a callback into script code under the lock and budget,
// reporting errors to the host.
func (s *Script) enter(fn Value, args ...Value) {
	s.mu.Lock()
	err := s.enterLocked(fn, args)
	s.mu.Unlock()
	s.report(err)
}

// deliver is enter for a subscription handler: the message as a view and its
// origin, boxed once per distinct origin.
func (s *Script) deliver(fn Value, m msg.Value, origin string) {
	s.mu.Lock()
	o, ok := s.origins[origin]
	if !ok {
		if len(s.origins) >= maxOrigins || s.origins == nil {
			s.origins = make(map[string]Value)
		}
		o = origin
		s.origins[origin] = o
	}
	err := s.enterLocked(fn, []Value{FromMsg(m), o})
	s.mu.Unlock()
	s.report(err)
}

// enterLocked is enter's body; it does nothing once the script has stopped
// or before it has started. Caller holds s.mu.
func (s *Script) enterLocked(fn Value, args []Value) error {
	if s.stopped || !s.started {
		return nil
	}
	in := s.in
	in.begin(s.cfg.StepBudget)
	s.stats.Entries++
	// The arguments go on the interpreter's stack, so that the caller's
	// slice need not outlive the call.
	in.args = append(in.args, args...)
	_, err := in.invoke(nil, fn, Undefined, in.args[:len(args):len(args)])
	s.stats.Steps += int64(s.cfg.StepBudget - in.steps)
	if err != nil {
		s.noteErrLocked(err)
	}
	return err
}

// report hands an entry's error to the host.
func (s *Script) report(err error) {
	if err != nil && s.host != nil {
		s.host.ReportError(s.Name, normalizeErr(s.Name, err))
	}
}

// detectAutoStart scans top-level statements for setAutoStart(<falsy
// literal>) calls.
func detectAutoStart(prog *program) bool {
	for _, stmt := range prog.body {
		es, ok := stmt.(*exprStmt)
		if !ok {
			continue
		}
		c, ok := es.expr.(*call)
		if !ok || len(c.args) != 1 {
			continue
		}
		id, ok := c.callee.(*ident)
		if !ok || id.name != "setAutoStart" {
			continue
		}
		switch a := c.args[0].(type) {
		case *boolLit:
			return a.value
		case *numberLit:
			return Truthy(a.value)
		case *nullLit, *undefinedLit:
			return false
		}
	}
	return true
}

// normalizeErr converts escaped control-flow signals into RuntimeErrors.
func normalizeErr(name string, err error) error {
	switch e := err.(type) {
	case throwSignal:
		return &RuntimeError{Script: name, Line: e.line, Msg: "uncaught " + ToString(e.value), Thrown: e.value}
	case returnSignal, breakSignal, continueSignal:
		return &RuntimeError{Script: name, Msg: err.Error()}
	default:
		return err
	}
}

// installAPI binds the 11-method Pogo API of Table 1 into the globals.
func (s *Script) installAPI() {
	g := s.globals

	g.declare("setDescription", &Builtin{name: "setDescription", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		s.description = ToString(argAt(args, 0))
		return Undefined, nil
	}})
	g.declare("setAutoStart", &Builtin{name: "setAutoStart", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		s.autoStart = Truthy(argAt(args, 0))
		return Undefined, nil
	}})
	g.declare("print", &Builtin{name: "print", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		s.host.Print(s.Name, joinArgs(args))
		return Undefined, nil
	}})
	g.declare("log", &Builtin{name: "log", fn: func(_ *interp, _ Value, args []Value) (Value, error) {
		s.host.Log(s.Name, "", joinArgs(args))
		return Undefined, nil
	}})
	g.declare("logTo", &Builtin{name: "logTo", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		if len(args) < 1 {
			return nil, in.errorf(nil, "logTo needs a log name")
		}
		s.host.Log(s.Name, ToString(args[0]), joinArgs(args[1:]))
		return Undefined, nil
	}})
	g.declare("publish", &Builtin{name: "publish", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, in.errorf(nil, "publish needs (channel, message)")
		}
		// Table 1 says publish(channel, message) but Listing 2 writes
		// publish(msg, 'filtered-scans'); accept both orders.
		chArg, msgArg := args[0], args[1]
		if _, ok := chArg.(string); !ok {
			if _, ok := msgArg.(string); ok {
				chArg, msgArg = msgArg, chArg
			}
		}
		channel, ok := chArg.(string)
		if !ok {
			return nil, in.errorf(nil, "publish: channel must be a string")
		}
		payload, err := ToMsg(msgArg)
		if err != nil {
			return nil, in.errorf(nil, "publish: %v", err)
		}
		s.stats.Publishes++
		if err := s.host.Publish(channel, payload); err != nil {
			return nil, in.errorf(nil, "publish: %v", err)
		}
		return Undefined, nil
	}})
	g.declare("subscribe", &Builtin{name: "subscribe", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, in.errorf(nil, "subscribe needs (channel, function)")
		}
		channel, ok := args[0].(string)
		if !ok {
			return nil, in.errorf(nil, "subscribe: channel must be a string")
		}
		handler := args[1]
		if _, isFn := handler.(*Function); !isFn {
			if _, isB := handler.(*Builtin); !isB {
				return nil, in.errorf(nil, "subscribe: second argument must be a function")
			}
		}
		var params msg.Map
		if len(args) > 2 {
			pv, err := ToMsg(args[2])
			if err != nil {
				return nil, in.errorf(nil, "subscribe: bad parameters: %v", err)
			}
			switch pm := pv.(type) {
			case msg.Map:
				params = pm
			case msg.Raw:
				params = pm.Map()
			}
		}
		release, renew, err := s.host.Subscribe(channel, params, func(m msg.Value, origin string) {
			s.deliver(handler, m, origin)
		})
		if err != nil {
			return nil, in.errorf(nil, "subscribe: %v", err)
		}
		s.releases = append(s.releases, release)
		sub := NewObject()
		sub.Set("channel", channel)
		sub.Set("release", &Builtin{name: "release", fn: func(_ *interp, _ Value, _ []Value) (Value, error) {
			release()
			return Undefined, nil
		}})
		sub.Set("renew", &Builtin{name: "renew", fn: func(_ *interp, _ Value, _ []Value) (Value, error) {
			renew()
			return Undefined, nil
		}})
		return sub, nil
	}})
	g.declare("freeze", &Builtin{name: "freeze", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		v, err := ToMsg(argAt(args, 0))
		if err != nil {
			return nil, in.errorf(nil, "freeze: %v", err)
		}
		if err := s.host.Freeze(s.Name, v); err != nil {
			return nil, in.errorf(nil, "freeze: %v", err)
		}
		return Undefined, nil
	}})
	g.declare("thaw", &Builtin{name: "thaw", fn: func(_ *interp, _ Value, _ []Value) (Value, error) {
		v, ok := s.host.Thaw(s.Name)
		if !ok {
			return nil, nil // null when nothing frozen
		}
		return FromMsg(v), nil
	}})
	g.declare("json", &Builtin{name: "json", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		return in.jsonString("json", argAt(args, 0))
	}, text: func(in *interp, dst []byte, args []Value) ([]byte, error) {
		return in.appendJSON("json", dst, argAt(args, 0))
	}})
	g.declare("setTimeout", &Builtin{name: "setTimeout", fn: func(in *interp, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, in.errorf(nil, "setTimeout needs (function, delay)")
		}
		fn := args[0]
		delay := time.Duration(ToNumber(args[1])) * time.Millisecond
		if delay < 0 {
			delay = 0
		}
		s.host.SetTimeout(func() { s.enter(fn) }, delay)
		return Undefined, nil
	}})
}

// jsonString is the json() and JSON.stringify builtins: v as JSON text.
func (in *interp) jsonString(builtin string, v Value) (Value, error) {
	buf, err := in.appendJSON(builtin, in.buf[:0], v)
	if err != nil {
		return nil, err
	}
	in.buf = buf
	return string(buf), nil
}

// appendJSON appends v's JSON text to dst. An unwritten view of a message is
// transcoded from the message's bytes.
func (in *interp) appendJSON(builtin string, dst []byte, v Value) ([]byte, error) {
	m, err := toMsgDepth(v, 0)
	if err == nil {
		dst, err = msg.AppendJSON(dst, m)
	}
	if err != nil {
		return nil, in.errorf(nil, "%s: %v", builtin, err)
	}
	return dst, nil
}

func joinArgs(args []Value) string {
	if len(args) == 1 {
		return ToString(args[0])
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = ToString(a)
	}
	return strings.Join(parts, " ")
}
