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
	// on (see toMsg): a msg.Raw when the script republishes a message it
	// received untouched, a tree decoded from the script's encoding of an
	// object or array it built — a msg.Map for an object — and the value
	// itself otherwise. A host that is a RawPublisher is handed an object or
	// array there instead.
	Publish(channel string, m msg.Value) error
	// Subscribe registers a handler on a channel with optional parameters.
	// The returned release/renew functions implement the Subscription
	// object's methods. The handler receives the message and its origin
	// (the remote node it came from, or ""); the script reads a msg.Raw in
	// place (see fromMsg), which is what a host hands it; a tree is encoded
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

// RawPublisher is a Host that takes what a script publishes as it is
// encoded, as the core does: no tree is built.
type RawPublisher interface {
	// PublishRaw publishes r, the encoding of an object or array. forwarded
	// reports a message the script received and republishes untouched, as
	// against one it built, which the script package encoded for this call.
	PublishRaw(channel string, r msg.Raw, forwarded bool) error
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
	main stmt // the compiled body

	mu          sync.Mutex // serializes script execution
	globals     *table
	in          *interp // runs every entry; guarded by mu
	started     bool
	stopped     bool
	description string
	autoStart   bool
	releases    []func()
	stats       Stats
	// origins holds each recently seen delivery origin boxed as a value, so
	// a handler's origin argument is boxed once per peer, not per message.
	origins map[string]value
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

// isBudgetError reports whether err is (or wraps) the execution-budget
// violation the interpreter raises when a call exceeds its step budget.
func isBudgetError(err error) bool {
	if errors.Is(err, errBudget) {
		return true
	}
	var re *RuntimeError
	return errors.As(err, &re) && re.Msg == errBudget.Error()
}

// noteErrLocked classifies a failed entry into script code. Caller holds
// s.mu.
func (s *Script) noteErrLocked(err error) {
	s.stats.Errors++
	if isBudgetError(err) {
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
		main: compile(prog),
		// Scripts run on deployment unless the body opts out with a
		// top-level setAutoStart(false) — detected statically, since the
		// body has not run yet when the deployer asks (§4.4).
		autoStart: detectAutoStart(prog),
	}
	s.globals = &table{}
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
	done, err := s.main(in, nil)
	if err == nil && done != normal {
		err = &RuntimeError{Script: s.Name, Msg: escapeMsg[done]}
	}
	if err != nil {
		s.noteErrLocked(err)
		return normalizeErr(s.Name, err)
	}
	if fn, ok := s.globals.get("start"); ok {
		if fn, isFn := fn.(*function); isFn {
			if _, err := in.call(0, fn, nil); err != nil {
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

// enter runs a callback into script code under the lock and budget,
// reporting errors to the host.
func (s *Script) enter(fn value, args ...value) {
	s.mu.Lock()
	err := s.enterLocked(fn, args)
	s.mu.Unlock()
	s.report(err)
}

// deliver is enter for a subscription handler: the message as a view and its
// origin, boxed once per distinct origin.
func (s *Script) deliver(fn value, m msg.Value, origin string) {
	s.mu.Lock()
	o, ok := s.origins[origin]
	if !ok {
		if len(s.origins) >= maxOrigins || s.origins == nil {
			s.origins = make(map[string]value)
		}
		o = origin
		s.origins[origin] = o
	}
	err := s.enterLocked(fn, []value{fromMsg(m), o})
	s.mu.Unlock()
	s.report(err)
}

// enterLocked is enter's body; it does nothing once the script has stopped
// or before it has started. Caller holds s.mu.
func (s *Script) enterLocked(fn value, args []value) error {
	if s.stopped || !s.started {
		return nil
	}
	in := s.in
	in.begin(s.cfg.StepBudget)
	s.stats.Entries++
	// The arguments go on the interpreter's stack, so that the caller's
	// slice need not outlive the call.
	in.args = append(in.args, args...)
	_, err := in.invoke(0, fn, undefined, in.args[:len(args):len(args)])
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
			return truthy(a.value)
		case *nullLit, *undefinedLit:
			return false
		}
	}
	return true
}

// normalizeErr converts an escaped throw into a RuntimeError.
func normalizeErr(name string, err error) error {
	if e, ok := err.(throwSignal); ok {
		return &RuntimeError{Script: name, Line: e.line, Msg: "uncaught " + toString(e.value), Thrown: e.value}
	}
	return err
}

// installAPI binds the 11-method Pogo API of Table 1 into the globals.
func (s *Script) installAPI() {
	g := s.globals

	g.put("setDescription", &builtin{name: "setDescription", fn: func(_ *interp, _ value, args []value) (value, error) {
		s.description = toString(argAt(args, 0))
		return undefined, nil
	}})
	g.put("setAutoStart", &builtin{name: "setAutoStart", fn: func(_ *interp, _ value, args []value) (value, error) {
		s.autoStart = truthy(argAt(args, 0))
		return undefined, nil
	}})
	g.put("print", &builtin{name: "print", fn: func(_ *interp, _ value, args []value) (value, error) {
		s.host.Print(s.Name, joinArgs(args))
		return undefined, nil
	}})
	g.put("log", &builtin{name: "log", fn: func(_ *interp, _ value, args []value) (value, error) {
		s.host.Log(s.Name, "", joinArgs(args))
		return undefined, nil
	}})
	g.put("logTo", &builtin{name: "logTo", fn: func(in *interp, _ value, args []value) (value, error) {
		if len(args) < 1 {
			return nil, in.errorf(0, "logTo needs a log name")
		}
		s.host.Log(s.Name, toString(args[0]), joinArgs(args[1:]))
		return undefined, nil
	}})
	g.put("publish", &builtin{name: "publish", fn: func(in *interp, _ value, args []value) (value, error) {
		if len(args) < 2 {
			return nil, in.errorf(0, "publish needs (channel, message)")
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
			return nil, in.errorf(0, "publish: channel must be a string")
		}
		payload, forwarded, err := in.enc.toMsg(msgArg)
		if err != nil {
			return nil, in.errorf(0, "publish: %v", err)
		}
		s.stats.Publishes++
		if err := s.publish(channel, payload, forwarded); err != nil {
			return nil, in.errorf(0, "publish: %v", err)
		}
		return undefined, nil
	}})
	g.put("subscribe", &builtin{name: "subscribe", fn: func(in *interp, _ value, args []value) (value, error) {
		if len(args) < 2 {
			return nil, in.errorf(0, "subscribe needs (channel, function)")
		}
		channel, ok := args[0].(string)
		if !ok {
			return nil, in.errorf(0, "subscribe: channel must be a string")
		}
		handler := args[1]
		if _, isFn := handler.(*function); !isFn {
			if _, isB := handler.(*builtin); !isB {
				return nil, in.errorf(0, "subscribe: second argument must be a function")
			}
		}
		var params msg.Map
		if len(args) > 2 {
			pv, _, err := in.enc.toMsg(args[2])
			if err != nil {
				return nil, in.errorf(0, "subscribe: bad parameters: %v", err)
			}
			if r, ok := pv.(msg.Raw); ok {
				params = r.Map()
			}
		}
		release, renew, err := s.host.Subscribe(channel, params, func(m msg.Value, origin string) {
			s.deliver(handler, m, origin)
		})
		if err != nil {
			return nil, in.errorf(0, "subscribe: %v", err)
		}
		s.releases = append(s.releases, release)
		sub := newObject()
		sub.set("channel", channel)
		sub.set("release", &builtin{name: "release", fn: func(_ *interp, _ value, _ []value) (value, error) {
			release()
			return undefined, nil
		}})
		sub.set("renew", &builtin{name: "renew", fn: func(_ *interp, _ value, _ []value) (value, error) {
			renew()
			return undefined, nil
		}})
		return sub, nil
	}})
	g.put("freeze", &builtin{name: "freeze", fn: func(in *interp, _ value, args []value) (value, error) {
		v, _, err := in.enc.toMsg(argAt(args, 0))
		if err != nil {
			return nil, in.errorf(0, "freeze: %v", err)
		}
		if err := s.host.Freeze(s.Name, v); err != nil {
			return nil, in.errorf(0, "freeze: %v", err)
		}
		return undefined, nil
	}})
	g.put("thaw", &builtin{name: "thaw", fn: func(_ *interp, _ value, _ []value) (value, error) {
		v, ok := s.host.Thaw(s.Name)
		if !ok {
			return nil, nil // null when nothing frozen
		}
		return fromMsg(v), nil
	}})
	g.put("json", &builtin{name: "json", fn: func(in *interp, _ value, args []value) (value, error) {
		return in.jsonString("json", argAt(args, 0))
	}, text: func(in *interp, dst []byte, args []value) ([]byte, error) {
		return in.appendJSON("json", dst, argAt(args, 0))
	}})
	g.put("setTimeout", &builtin{name: "setTimeout", fn: func(in *interp, _ value, args []value) (value, error) {
		if len(args) < 2 {
			return nil, in.errorf(0, "setTimeout needs (function, delay)")
		}
		fn := args[0]
		delay := time.Duration(toNumber(args[1])) * time.Millisecond
		if delay < 0 {
			delay = 0
		}
		s.host.SetTimeout(func() { s.enter(fn) }, delay)
		return undefined, nil
	}})
}

// jsonString is the json() and JSON.stringify builtins: v as JSON text.
func (in *interp) jsonString(builtin string, v value) (value, error) {
	buf, err := in.appendJSON(builtin, in.buf[:0], v)
	if err != nil {
		return nil, err
	}
	in.buf = buf
	return string(buf), nil
}

// appendJSON appends v's JSON text to dst, transcoded from its encoding: the
// message's own bytes for a view nothing was written to.
func (in *interp) appendJSON(builtin string, dst []byte, v value) ([]byte, error) {
	r, err := in.enc.encode(v)
	switch {
	case err != nil:
	case r.IsZero():
		dst, err = msg.TranscodeJSON(dst, in.enc.buf)
	default:
		dst, err = msg.AppendJSON(dst, r)
	}
	if err != nil {
		return nil, in.errorf(0, "%s: %v", builtin, err)
	}
	return dst, nil
}

// publish hands the host a message the script publishes: its encoding, when
// the host takes one, and otherwise a tree decoded from it.
func (s *Script) publish(channel string, m msg.Value, forwarded bool) error {
	if r, ok := m.(msg.Raw); ok {
		if p, ok := s.host.(RawPublisher); ok {
			return p.PublishRaw(channel, r, forwarded)
		}
		if !forwarded {
			m = r.Value()
		}
	}
	return s.host.Publish(channel, m)
}

func joinArgs(args []value) string {
	if len(args) == 1 {
		return toString(args[0])
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = toString(a)
	}
	return strings.Join(parts, " ")
}
