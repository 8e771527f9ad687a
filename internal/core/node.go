// Package core implements the Pogo node — the paper's primary contribution
// (§3, §4.2). Both researchers and device owners run the same middleware;
// the only functional difference is that researcher nodes operate in
// collector mode, which gives them the ability to deploy scripts.
//
// A node hosts script *contexts* (sandboxes, one per experiment), each with
// its own publish/subscribe broker. Contexts pair with counterparts on
// remote nodes: subscriptions made by a script on one side materialize as
// proxy subscriptions on the other, so the pub/sub abstraction works
// seamlessly across the network boundary — a collector script subscribing
// to "battery" automatically receives voltage measurements from every
// device in the experiment, and its {interval} parameter drives the remote
// battery sensors' sampling schedules. Device nodes never talk to each
// other (§4.2); the roster at the switchboard enforces it.
//
// Outbound data is buffered in a durable outbox and flushed according to a
// policy: immediately, on an interval, or synchronized with other
// applications' 3G tails (§4.7).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pogo/internal/android"
	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/radio"
	"pogo/internal/sched"
	"pogo/internal/script"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/tail"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// Mode selects a node's role.
type Mode int

// Node modes.
const (
	DeviceMode Mode = iota + 1
	CollectorMode
)

// FlushPolicy selects when the outbox is pushed to the network.
type FlushPolicy int

// Flush policies. The §5.2 experiment compares FlushTailSync (Pogo's
// contribution) against the alternatives.
const (
	// FlushManual leaves flushing to explicit Flush calls (and reconnects).
	FlushManual FlushPolicy = iota + 1
	// FlushImmediate sends every message as soon as it is enqueued —
	// maximal tails, the strawman baseline.
	FlushImmediate
	// FlushInterval flushes every Config.FlushEvery.
	FlushInterval
	// FlushTailSync flushes when the tail detector observes another
	// application's transmission (§4.7); requires a Device and Modem.
	FlushTailSync
)

// Control channels of the context-pairing protocol; application channels
// must not start with '@'.
const (
	chanHello       = "@hello"
	chanDeploy      = "@deploy"
	chanUndeploy    = "@undeploy"
	chanSubscribe   = "@subscribe"
	chanUnsubscribe = "@unsubscribe"
)

// Config assembles a node.
type Config struct {
	// ID is the node's switchboard identity; must match the messenger's.
	ID   string
	Mode Mode
	// Clock drives everything; vclock.Sim for experiments, vclock.Real for
	// the cmd/ binaries.
	Clock vclock.Clock
	// Messenger is the unreliable switchboard attachment.
	Messenger transport.Messenger
	// Device is the simulated phone (device mode; nil in collector mode).
	Device *android.Device
	// Modem supplies the traffic counters for tail detection (device mode,
	// required for FlushTailSync).
	Modem *radio.Modem
	// Storage persists freeze/thaw state; defaults to a fresh MemKV.
	Storage store.KV
	// OutboxPath backs the durable outbox; "" uses a volatile one.
	OutboxPath string
	// FlushPolicy defaults to FlushManual.
	FlushPolicy FlushPolicy
	// FlushEvery is the FlushInterval period (default 1 h — the §4.7
	// "flush the transmit buffer at long intervals" alternative).
	FlushEvery time.Duration
	// Privacy is the device owner's per-channel sharing policy (§3.3);
	// nil shares everything. Changes apply to running experiments at once.
	Privacy *Privacy
	// OnPrint observes script print() output (may be nil).
	OnPrint func(scriptName, text string)
	// OnScriptError observes script runtime errors (may be nil).
	OnScriptError func(scriptName string, err error)
	// Obs, when non-nil, receives metrics and message-lifecycle trace
	// events from every layer of the node (broker, scheduler, transport,
	// tail detector, per-script usage). Nil disables observability at zero
	// cost.
	Obs *obs.Registry
	// ObsEntity overrides the device axis that this node's ledger charges
	// (energy, bytes, wakeups) are booked under. Defaults to ID. Experiment
	// harnesses use it to keep trials apart (e.g. "kpn/pogo") while metric
	// node labels stay stable.
	ObsEntity string
}

// Node is a running Pogo middleware instance.
type Node struct {
	cfg  Config
	clk  vclock.Clock
	sch  *sched.Scheduler
	smgr *sensors.Manager
	box  *store.Outbox
	ep   *transport.Endpoint
	det  *tail.Detector
	logs *LogStore

	mu        sync.Mutex
	contexts  map[string]*Context // device mode: one per collector
	local     *Context            // collector mode: the experiment context
	deploys   map[string]string   // collector mode: script name → source
	deploySeq []string
	stopFlush func()
	closed    bool

	// flushTask is Flush as a scheduler task, built once: the immediate
	// policy submits it for every message.
	flushTask func()

	// pubs numbers the node's local publications: every context's broker
	// draws from it, so within one boot a number names one publication on
	// the node (it starts at 1 again after a restart, and the boot, which
	// pubTraces folds in, tells the two apart).
	pubs      atomic.Uint64
	pubTraces obs.Publications

	obsCancel    func()               // unregisters the usage collect hook; nil without Obs
	usageAnchors map[string]lastUsage // previously ledger-charged usage per script
}

// NewNode assembles and starts a node: it attaches to the messenger,
// arms the flush policy, and (device mode) greets its roster collectors.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.Clock == nil || cfg.Messenger == nil {
		return nil, errors.New("core: ID, Clock, and Messenger are required")
	}
	if cfg.Mode != DeviceMode && cfg.Mode != CollectorMode {
		return nil, errors.New("core: bad mode")
	}
	if cfg.Mode == CollectorMode && cfg.Device != nil {
		return nil, errors.New("core: collector nodes have no device")
	}
	if cfg.Storage == nil {
		cfg.Storage = store.NewMemKV()
	}
	if cfg.FlushPolicy == 0 {
		// Collectors are wired and always online: send immediately. Devices
		// default to manual so callers make a deliberate energy choice.
		if cfg.Mode == CollectorMode {
			cfg.FlushPolicy = FlushImmediate
		} else {
			cfg.FlushPolicy = FlushManual
		}
	}
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = time.Hour
	}
	if cfg.FlushPolicy == FlushTailSync && (cfg.Device == nil || cfg.Modem == nil) {
		return nil, errors.New("core: FlushTailSync needs Device and Modem")
	}
	if cfg.ObsEntity == "" {
		cfg.ObsEntity = cfg.ID
	}

	var box *store.Outbox
	if cfg.OutboxPath == "" {
		box = store.OpenMemory()
	} else {
		b, err := store.Open(cfg.OutboxPath)
		if err != nil {
			return nil, fmt.Errorf("core: outbox: %w", err)
		}
		box = b
	}

	n := &Node{
		cfg:      cfg,
		clk:      cfg.Clock,
		sch:      sched.New(cfg.Clock, cfg.Device),
		box:      box,
		logs:     newLogStore(),
		contexts: make(map[string]*Context),
		deploys:  make(map[string]string),
	}
	n.flushTask = func() { n.Flush() }
	n.smgr = sensors.NewManager(n.sch)
	n.sch.Instrument(cfg.Obs, cfg.ID, cfg.ObsEntity)
	// Task names follow the conventions in this package: "script-<name>"
	// for subscription dispatch and "timeout-<name>" for setTimeout. Anything
	// else (flush, presence, sensors) is middleware overhead and charges the
	// bare device entity.
	n.sch.SetTaskOwner(func(task string) string {
		if s, ok := cutPrefix(task, "script-"); ok {
			return s
		}
		if s, ok := cutPrefix(task, "timeout-"); ok {
			return s
		}
		return ""
	})
	n.ep = transport.NewEndpoint(cfg.Messenger, box, cfg.Clock, transport.EndpointConfig{
		MaxAge: store.DefaultMaxAge, // the deployment's 24 h purge
		Obs:    cfg.Obs,
		Entity: cfg.ObsEntity,
	})
	n.pubTraces = obs.PublicationsOf(cfg.Messenger.LocalID(), n.ep.BootID())
	n.ep.OnMessageTraced(n.handleMessage)
	cfg.Messenger.OnOnline(func() { n.sch.Submit("reconnect-flush", n.flushTask) })
	cfg.Messenger.OnPresence(n.handlePresence)
	if cfg.Privacy != nil {
		cfg.Privacy.onChange(func(channel string, shared bool) {
			n.mu.Lock()
			ctxs := make([]*Context, 0, len(n.contexts)+1)
			for _, c := range n.contexts {
				ctxs = append(ctxs, c)
			}
			if n.local != nil {
				ctxs = append(ctxs, n.local)
			}
			n.mu.Unlock()
			for _, c := range ctxs {
				c.applyPrivacy(channel, shared)
			}
		})
	}

	// The flush policy (and in particular the tail detector's self-traffic
	// discounting) must be armed before the node's first transmission.
	switch cfg.FlushPolicy {
	case FlushInterval:
		n.stopFlush = n.sch.Every(cfg.FlushEvery, "flush", func() { n.Flush() })
	case FlushTailSync:
		n.det = tail.New(cfg.Device, cfg.Modem.Stats, 0)
		n.det.Instrument(cfg.Obs, cfg.ID)
		// Pogo's own transmissions (and the acks they provoke) must not
		// re-trigger the detector (§4.7 detects OTHER applications).
		n.ep.OnWire(func(sent, recv int64) { n.det.Discount(sent + recv) })
		// A detected tail is a hit when buffered data rides it out, a miss
		// when the outbox was already empty.
		hits := cfg.Obs.Counter("tailsync_piggyback_hits_total", obs.L("node", cfg.ID))
		misses := cfg.Obs.Counter("tailsync_piggyback_misses_total", obs.L("node", cfg.ID))
		tailMeter := cfg.Obs.Meter(cfg.ObsEntity, "", "")
		n.det.OnTraffic(func(int64) {
			if n.Pending() > 0 {
				hits.Inc()
				tailMeter.AddTailHit(1)
			} else {
				misses.Inc()
				tailMeter.AddTailMiss(1)
			}
			n.Flush()
		})
		n.det.Start()
	}

	if cfg.Obs != nil {
		// Every snapshot also refreshes the node's outbox depth, so the
		// collector_backpressure alert rule (and pogo-top) see live backlog
		// without the node pushing a gauge on its hot path.
		backlog := cfg.Obs.Gauge("node_outbox_pending", obs.L("node", cfg.ID))
		usageCancel := cfg.Obs.OnCollect(func() {
			n.exportUsage()
			backlog.Set(float64(n.Pending()))
		})
		n.obsCancel = usageCancel
	}

	switch cfg.Mode {
	case CollectorMode:
		n.local = newContext(n, "")
	case DeviceMode:
		// Greet roster collectors so they (re)deploy — this is how scripts
		// come back after a reboot.
		for _, peer := range cfg.Messenger.Peers() {
			n.sendControl(peer, chanHello, msg.Map{})
		}
		n.Flush()
	}
	return n, nil
}

// ID returns the node identity.
func (n *Node) ID() string { return n.cfg.ID }

// Sensors returns the node's sensor manager; callers register the device's
// sensors here.
func (n *Node) Sensors() *sensors.Manager { return n.smgr }

// Logs returns the node's log storage (the collector's "database").
func (n *Node) Logs() *LogStore { return n.logs }

// Endpoint exposes the transport endpoint (stats, tests).
func (n *Node) Endpoint() *transport.Endpoint { return n.ep }

// TailDetector returns the tail detector when FlushTailSync is active.
func (n *Node) TailDetector() *tail.Detector { return n.det }

// LocalContext returns the collector's experiment context (nil on devices).
func (n *Node) LocalContext() *Context {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.local
}

// Contexts returns the device's contexts keyed by collector (device mode).
func (n *Node) Contexts() map[string]*Context {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]*Context, len(n.contexts))
	for k, v := range n.contexts {
		out[k] = v
	}
	return out
}

// Flush pushes buffered messages out under the current connectivity.
func (n *Node) Flush() int { return n.ep.Flush() }

// Pending returns the number of buffered outbound messages.
func (n *Node) Pending() int { return n.ep.Pending() }

// Close stops scripts, sensors, the scheduler, and the outbox.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	ctxs := make([]*Context, 0, len(n.contexts)+1)
	for _, c := range n.contexts {
		ctxs = append(ctxs, c)
	}
	if n.local != nil {
		ctxs = append(ctxs, n.local)
	}
	stopFlush := n.stopFlush
	obsCancel := n.obsCancel
	n.mu.Unlock()

	if obsCancel != nil {
		obsCancel()
		n.exportUsage() // final usage export; scripts are about to stop
	}
	if n.det != nil {
		n.det.Stop()
	}
	if stopFlush != nil {
		stopFlush()
	}
	for _, c := range ctxs {
		c.close()
	}
	n.smgr.Close()
	n.sch.Close()
	n.box.Close()
}

// ---- collector-mode API ----

// Deploy pushes a script to every device on the roster, now and whenever a
// device (re)appears (§3.2: push-based deployment). Re-deploying the same
// name replaces the script (a field update).
func (n *Node) Deploy(name, source string) error {
	if n.cfg.Mode != CollectorMode {
		return errors.New("core: Deploy requires collector mode")
	}
	// Validate before shipping: a syntax error should fail at the
	// researcher's desk, not on a thousand phones.
	if _, err := script.New(name, source, nil, script.Config{}); err != nil {
		return fmt.Errorf("core: deploy %s: %w", name, err)
	}
	n.mu.Lock()
	if _, known := n.deploys[name]; !known {
		n.deploySeq = append(n.deploySeq, name)
	}
	n.deploys[name] = source
	n.mu.Unlock()
	for _, peer := range n.cfg.Messenger.Peers() {
		n.sendControl(peer, chanDeploy, msg.Map{"name": name, "source": source})
	}
	n.Flush()
	return nil
}

// DeployLocal runs a script in the collector's own context (collect.js).
func (n *Node) DeployLocal(name, source string) error {
	if n.cfg.Mode != CollectorMode {
		return errors.New("core: DeployLocal requires collector mode")
	}
	return n.local.deploy(name, source)
}

// ---- message plumbing ----

// sendControl enqueues a control message for a peer on the reliable
// endpoint, flushing right away under the immediate policy.
func (n *Node) sendControl(peer, channel string, payload msg.Map) {
	if err := n.ep.Enqueue(peer, channel, payload); err != nil && n.cfg.OnScriptError != nil {
		n.cfg.OnScriptError("(core)", err)
	}
	if n.cfg.FlushPolicy == FlushImmediate {
		n.sch.Submit("flush-control", n.flushTask)
	}
}

// handleMessage dispatches a deduplicated inbound message. trace is the
// wire-propagated trace ID (0 from an untraced peer); application data
// re-publishes under it so the receiving fanout joins the sender's span
// tree.
func (n *Node) handleMessage(from, channel string, body msg.Raw, trace obs.TraceID) {
	switch channel {
	case chanHello:
		n.handleHello(from)
	case chanDeploy:
		if n.cfg.Mode != DeviceMode {
			return
		}
		ctx := n.contextFor(from)
		name := msg.GetString(body, "name")
		source := msg.GetString(body, "source")
		if name == "" {
			return
		}
		if err := ctx.deploy(name, source); err != nil && n.cfg.OnScriptError != nil {
			n.cfg.OnScriptError(name, err)
		}
	case chanUndeploy:
		if ctx := n.existingContext(from); ctx != nil {
			ctx.undeploy(msg.GetString(body, "name"))
		}
	case chanSubscribe:
		ctx := n.contextForInbound(from)
		if ctx == nil {
			return
		}
		id, _ := msg.GetNumber(body, "id")
		var params msg.Map
		if p, ok := body.Field("params"); ok {
			if r, ok := p.(msg.Raw); ok {
				params = r.Map()
			}
		}
		ctx.addProxy(from, int(id), msg.GetString(body, "channel"), params)
	case chanUnsubscribe:
		ctx := n.contextForInbound(from)
		if ctx == nil {
			return
		}
		id, _ := msg.GetNumber(body, "id")
		ctx.removeProxy(from, int(id))
	default:
		// Application data: publish into the paired context with origin. The
		// broker hands every subscriber the validated wire body itself.
		ctx := n.contextForInbound(from)
		if ctx == nil {
			return
		}
		ctx.broker.PublishTraced(channel, body, from, trace)
	}
}

// handleHello: a device booted or joined; ship it the current experiment.
func (n *Node) handleHello(from string) {
	if n.cfg.Mode != CollectorMode {
		return
	}
	n.mu.Lock()
	names := append([]string(nil), n.deploySeq...)
	sources := make([]string, len(names))
	for i, name := range names {
		sources[i] = n.deploys[name]
	}
	local := n.local
	n.mu.Unlock()
	for i, name := range names {
		n.sendControl(from, chanDeploy, msg.Map{"name": name, "source": sources[i]})
	}
	if local != nil {
		local.resendSubscriptions(from)
	}
	n.Flush()
}

// handlePresence reacts to roster peers appearing.
func (n *Node) handlePresence(peer string, online bool) {
	if !online {
		return
	}
	n.sch.Submit("presence", func() {
		switch n.cfg.Mode {
		case DeviceMode:
			// A collector (re)appeared: make sure it knows us. Duplicate
			// hellos are cheap; deploys are idempotent.
			n.sendControl(peer, chanHello, msg.Map{})
			n.Flush()
		case CollectorMode:
			n.Flush()
		}
	})
}

// contextFor returns (creating) the device-mode context for a collector.
func (n *Node) contextFor(owner string) *Context {
	n.mu.Lock()
	defer n.mu.Unlock()
	ctx, ok := n.contexts[owner]
	if !ok {
		ctx = newContext(n, owner)
		n.contexts[owner] = ctx
	}
	return ctx
}

// existingContext returns the context paired with owner, or nil.
func (n *Node) existingContext(owner string) *Context {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.contexts[owner]
}

// contextForInbound resolves which context an inbound message from a peer
// belongs to: the collector's local context, or the device's per-collector
// context (created on demand — a @subscribe can precede any @deploy).
func (n *Node) contextForInbound(from string) *Context {
	if n.cfg.Mode == CollectorMode {
		return n.LocalContext()
	}
	return n.contextFor(from)
}

// peersForContext lists the remote counterparts of a context: the single
// owner on devices, the whole roster on collectors.
func (n *Node) peersForContext(c *Context) []string {
	if c.owner != "" {
		return []string{c.owner}
	}
	return n.cfg.Messenger.Peers()
}

// cutPrefix is strings.CutPrefix, inlined to keep this file's imports flat.
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}
