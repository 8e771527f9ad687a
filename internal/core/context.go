package core

import (
	"fmt"
	"sync"
	"time"

	"pogo/internal/msg"
	"pogo/internal/pubsub"
	"pogo/internal/script"
)

// Context is an experiment sandbox (§4.2): the scripts of one experiment,
// their broker, and the pairing state with the remote counterpart(s).
// Scripts can only communicate within their context; sensors publish into
// every context's broker via the sensor manager.
type Context struct {
	node  *Node
	owner string // collector that owns this context; "" on the collector itself

	mu        sync.Mutex
	broker    *pubsub.Broker
	scripts   map[string]*deployedScript
	order     []string
	subSeq    int
	localSubs map[int]*localSub
	proxies   map[string]map[int]*proxySub
	closed    bool
}

// proxySub is a proxy subscription held for a remote peer, retaining its
// channel so privacy changes can re-gate it.
type proxySub struct {
	channel string
	sub     *pubsub.Subscription
}

type deployedScript struct {
	source string
	inst   *script.Script
}

// localSub tracks one script subscription for remote synchronization.
type localSub struct {
	id      int
	channel string
	params  msg.Map
	active  bool
	sub     *pubsub.Subscription
}

func newContext(n *Node, owner string) *Context {
	ctx := &Context{
		node:      n,
		owner:     owner,
		broker:    pubsub.New(),
		scripts:   make(map[string]*deployedScript),
		localSubs: make(map[int]*localSub),
		proxies:   make(map[string]map[int]*proxySub),
	}
	// Trace identity is unconditional (not gated on Obs): the numbers it
	// assigns travel in wire envelopes, so they must not depend on whether
	// a registry happens to be attached. Every context draws from the
	// node's one counter, under the node's wire identity, so the receiver
	// derives each trace from the sender it authenticated and the number.
	ctx.broker.SetTraceIdentity(n.cfg.Messenger.LocalID(), &n.pubs)
	ctx.broker.Instrument(n.cfg.Obs, n.clk.Now, n.cfg.ID, n.cfg.ObsEntity)
	n.smgr.AddBroker(ctx.broker)
	return ctx
}

// Broker exposes the context's broker (host services like the geocoder
// attach here).
func (c *Context) Broker() *pubsub.Broker { return c.broker }

// deploy installs (or updates) a script. Identical source is a no-op, so
// redeployments after @hello are idempotent.
func (c *Context) deploy(name, source string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("core: context closed")
	}
	var old *deployedScript
	if cur, ok := c.scripts[name]; ok {
		if cur.source == source {
			c.mu.Unlock()
			return nil
		}
		// Script update: the old instance stops (outside the lock — Stop
		// releases subscriptions, which re-enters the context); its frozen
		// state survives.
		old = cur
		delete(c.scripts, name)
		for i, o := range c.order {
			if o == name {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
	if old != nil {
		old.inst.Stop()
	}

	host := &scriptHost{ctx: c, name: name, scriptTask: "script-" + name, timeoutTask: "timeout-" + name}
	host.deliverTask = host.deliverNext
	inst, err := script.New(name, source, host, script.Config{})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.scripts[name] = &deployedScript{source: source, inst: inst}
	c.order = append(c.order, name)
	c.mu.Unlock()

	if !inst.AutoStart() {
		return nil
	}
	if err := inst.Start(); err != nil {
		if c.node.cfg.OnScriptError != nil {
			c.node.cfg.OnScriptError(name, err)
		}
		return err
	}
	return nil
}

// undeploy stops and removes a script.
func (c *Context) undeploy(name string) {
	c.mu.Lock()
	d, ok := c.scripts[name]
	if ok {
		delete(c.scripts, name)
		for i, o := range c.order {
			if o == name {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
	if ok {
		d.inst.Stop()
	}
}

// close tears the context down.
func (c *Context) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	scripts := make([]*deployedScript, 0, len(c.scripts))
	for _, d := range c.scripts {
		scripts = append(scripts, d)
	}
	var proxies []*pubsub.Subscription
	for _, m := range c.proxies {
		for _, p := range m {
			proxies = append(proxies, p.sub)
		}
	}
	c.mu.Unlock()
	for _, d := range scripts {
		d.inst.Stop()
	}
	for _, p := range proxies {
		p.Close()
	}
	c.node.smgr.RemoveBroker(c.broker)
}

// ---- subscription synchronization (the broker pairing of §4.2) ----

// registerLocalSub records a script subscription and announces it to the
// remote counterpart(s).
func (c *Context) registerLocalSub(channel string, params msg.Map, sub *pubsub.Subscription) *localSub {
	c.mu.Lock()
	c.subSeq++
	ls := &localSub{id: c.subSeq, channel: channel, params: params, active: true, sub: sub}
	c.localSubs[ls.id] = ls
	c.mu.Unlock()
	// The owner's privacy policy gates the broker subscription (but not the
	// remote announcement — the collector may know the script asked).
	if !c.node.cfg.Privacy.shared(channel) {
		sub.Release()
	}
	c.announceSub(ls, "")
	return ls
}

// announceSub sends @subscribe for one subscription; to == "" means every
// counterpart.
func (c *Context) announceSub(ls *localSub, to string) {
	body := msg.Map{"id": float64(ls.id), "channel": ls.channel}
	if ls.params != nil {
		body["params"] = msg.Clone(ls.params)
	}
	peers := []string{to}
	if to == "" {
		peers = c.node.peersForContext(c)
	}
	for _, peer := range peers {
		c.node.sendControl(peer, chanSubscribe, body)
	}
}

// releaseLocalSub deactivates a subscription locally and remotely.
func (c *Context) releaseLocalSub(ls *localSub) {
	c.mu.Lock()
	wasActive := ls.active
	ls.active = false
	c.mu.Unlock()
	ls.sub.Release()
	if !wasActive {
		return
	}
	for _, peer := range c.node.peersForContext(c) {
		c.node.sendControl(peer, chanUnsubscribe, msg.Map{"id": float64(ls.id)})
	}
}

// renewLocalSub reactivates a subscription locally and remotely. The local
// broker subscription only reactivates when the channel is shared; the
// script's intent is remembered so a later privacy change restores it.
func (c *Context) renewLocalSub(ls *localSub) {
	c.mu.Lock()
	wasActive := ls.active
	ls.active = true
	c.mu.Unlock()
	if c.node.cfg.Privacy.shared(ls.channel) {
		ls.sub.Renew()
	}
	if wasActive {
		return
	}
	c.announceSub(ls, "")
}

// resendSubscriptions re-announces all active subscriptions to one peer
// (collector → freshly hello'd device).
func (c *Context) resendSubscriptions(to string) {
	c.mu.Lock()
	subs := make([]*localSub, 0, len(c.localSubs))
	for i := 1; i <= c.subSeq; i++ {
		if ls, ok := c.localSubs[i]; ok && ls.active {
			subs = append(subs, ls)
		}
	}
	c.mu.Unlock()
	for _, ls := range subs {
		c.announceSub(ls, to)
	}
}

// addProxy installs a proxy subscription on behalf of a remote peer's
// script: locally published messages on the channel are forwarded to the
// peer through the reliable outbox. The proxy carries the remote
// subscription's params, so sensors see the remote demand (§4.2: "a script
// running on a collector node that subscribes to battery information will
// automatically receive voltage measurements from all devices").
func (c *Context) addProxy(peer string, id int, channel string, params msg.Map) {
	if channel == "" {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if byID, ok := c.proxies[peer]; ok {
		if old, exists := byID[id]; exists {
			old.sub.Close()
		}
	} else {
		c.proxies[peer] = make(map[int]*proxySub)
	}
	c.mu.Unlock()

	node := c.node
	sub := c.broker.Subscribe(channel, params, func(ev pubsub.Event) {
		if ev.Origin != "" {
			return // never relay remote-originated data (no device↔device paths)
		}
		// The publication's number travels in the wire envelope, and the
		// collector derives its trace: the fanout there joins this span
		// tree. The broker's trace identity is the endpoint's id (newContext),
		// so the two derive the same trace.
		if err := node.ep.EnqueuePublication(peer, channel, ev.Message, ev.Pub, ev.Trace); err != nil {
			return
		}
		if node.cfg.FlushPolicy == FlushImmediate {
			node.sch.Submit("flush-now", node.flushTask)
		}
	})
	// The device owner's privacy policy gates outbound data (§3.3): a
	// hidden channel's proxy is created released, so no demand reaches the
	// sensor and nothing leaves the phone.
	if !node.cfg.Privacy.shared(channel) {
		sub.Release()
	}
	c.mu.Lock()
	c.proxies[peer][id] = &proxySub{channel: channel, sub: sub}
	c.mu.Unlock()
}

// removeProxy drops a remote peer's proxy subscription.
func (c *Context) removeProxy(peer string, id int) {
	c.mu.Lock()
	var sub *pubsub.Subscription
	if byID, ok := c.proxies[peer]; ok {
		if p := byID[id]; p != nil {
			sub = p.sub
		}
		delete(byID, id)
	}
	c.mu.Unlock()
	if sub != nil {
		sub.Close()
	}
}

// applyPrivacy re-gates every live subscription on a channel after the
// owner changed its sharing setting.
func (c *Context) applyPrivacy(channel string, shared bool) {
	c.mu.Lock()
	var subs []*pubsub.Subscription
	var renews []*pubsub.Subscription
	for _, ls := range c.localSubs {
		if ls.channel != channel {
			continue
		}
		if shared && ls.active {
			renews = append(renews, ls.sub)
		} else if !shared {
			subs = append(subs, ls.sub)
		}
	}
	for _, byID := range c.proxies {
		for _, p := range byID {
			if p.channel != channel {
				continue
			}
			if shared {
				renews = append(renews, p.sub)
			} else {
				subs = append(subs, p.sub)
			}
		}
	}
	c.mu.Unlock()
	for _, s := range subs {
		s.Release()
	}
	for _, s := range renews {
		s.Renew()
	}
}

// ---- the script.Host implementation ----

// scriptHost binds one script to its context. It implements script.Host.
type scriptHost struct {
	ctx  *Context
	name string
	// Scheduler task names, built once: the scheduler runs each name's tasks
	// in order, so these are also what keeps a script's messages in order.
	scriptTask, timeoutTask string

	// Deliveries waiting for their handler, oldest at head. Every delivery
	// queues here and submits deliverTask, which runs the oldest one, so
	// dispatch takes one prebuilt task instead of a closure per message.
	mu          sync.Mutex
	pending     []delivery
	head        int
	deliverTask func()
}

// delivery is one message on its way to a script's subscription handler.
type delivery struct {
	handler func(msg.Value, string)
	m       msg.Value
	origin  string
}

// queue appends a delivery. Handed-out slots are reclaimed once they
// outnumber the waiting ones, so the slice stays proportional to the backlog.
func (h *scriptHost) queue(d delivery) {
	h.mu.Lock()
	if h.head > len(h.pending)/2 {
		n := copy(h.pending, h.pending[h.head:])
		clear(h.pending[n:])
		h.pending, h.head = h.pending[:n], 0
	}
	h.pending = append(h.pending, d)
	h.mu.Unlock()
}

// deliverNext runs the oldest queued delivery: one per submitted task.
func (h *scriptHost) deliverNext() {
	h.mu.Lock()
	d := h.pending[h.head]
	h.pending[h.head] = delivery{}
	h.head++
	h.mu.Unlock()
	d.handler(d.m, d.origin)
}

var (
	_ script.Host         = (*scriptHost)(nil)
	_ script.RawPublisher = (*scriptHost)(nil)
)

// PublishRaw implements script.RawPublisher: local publication of an object
// as the script encoded it, or forwards it, with no re-encode; proxies
// forward it to remote subscribers. An array is published as Publish
// publishes any other value.
func (h *scriptHost) PublishRaw(channel string, r msg.Raw, forwarded bool) error {
	if !r.IsMap() {
		return h.Publish(channel, r)
	}
	if err := reserved(channel); err != nil {
		return err
	}
	h.ctx.broker.PublishRaw(channel, r, forwarded)
	return nil
}

// Publish implements script.Host: a value that is not an object is published
// as {value: m}.
func (h *scriptHost) Publish(channel string, m msg.Value) error {
	if err := reserved(channel); err != nil {
		return err
	}
	h.ctx.broker.Publish(channel, msg.Map{"value": m})
	return nil
}

// reserved refuses the channels the core keeps for itself.
func reserved(channel string) error {
	if len(channel) > 0 && channel[0] == '@' {
		return fmt.Errorf("core: channel %q is reserved", channel)
	}
	return nil
}

// Subscribe implements script.Host. Handlers dispatch through the scheduler
// so a publish in script A never re-enters script B synchronously (§4.5
// serialization without deadlock), and so handling holds a wake lock.
func (h *scriptHost) Subscribe(channel string, params msg.Map, handler func(msg.Value, string)) (func(), func(), error) {
	if err := reserved(channel); err != nil {
		return nil, nil, err
	}
	node := h.ctx.node
	sub := h.ctx.broker.Subscribe(channel, params, func(ev pubsub.Event) {
		h.queue(delivery{handler, ev.Message, ev.Origin})
		node.sch.Submit(h.scriptTask, h.deliverTask)
	})
	ls := h.ctx.registerLocalSub(channel, params, sub)
	return func() { h.ctx.releaseLocalSub(ls) },
		func() { h.ctx.renewLocalSub(ls) }, nil
}

// Print implements script.Host.
func (h *scriptHost) Print(scriptName, text string) {
	if h.ctx.node.cfg.OnPrint != nil {
		h.ctx.node.cfg.OnPrint(scriptName, text)
	}
}

// Log implements script.Host.
func (h *scriptHost) Log(scriptName, logName, text string) {
	if logName == "" {
		logName = scriptName + ".log"
	}
	h.ctx.node.logs.append(logName, text)
}

// Freeze implements script.Host: one durable object per script (§4.4).
func (h *scriptHost) Freeze(scriptName string, v msg.Value) error {
	b, err := msg.EncodeJSON(v)
	if err != nil {
		return err
	}
	return h.ctx.node.cfg.Storage.Put(h.freezeKey(scriptName), b)
}

// Thaw implements script.Host.
func (h *scriptHost) Thaw(scriptName string) (msg.Value, bool) {
	b, ok := h.ctx.node.cfg.Storage.Get(h.freezeKey(scriptName))
	if !ok {
		return nil, false
	}
	v, err := msg.DecodeJSON(b)
	if err != nil {
		return nil, false
	}
	return v, true
}

func (h *scriptHost) freezeKey(scriptName string) string {
	return "frozen/" + h.ctx.owner + "/" + scriptName
}

// SetTimeout implements script.Host via the power-aware scheduler: the
// callback fires even if the CPU slept in between (an RTC alarm), and runs
// under a wake lock.
func (h *scriptHost) SetTimeout(fn func(), delay time.Duration) {
	h.ctx.node.sch.After(delay, h.timeoutTask, fn)
}

// ReportError implements script.Host.
func (h *scriptHost) ReportError(scriptName string, err error) {
	h.ctx.node.logs.append("errors", scriptName+": "+err.Error())
	if h.ctx.node.cfg.OnScriptError != nil {
		h.ctx.node.cfg.OnScriptError(scriptName, err)
	}
}
