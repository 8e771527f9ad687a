package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pogo/internal/core"
	"pogo/internal/pubsub"
	"pogo/internal/transport"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

const (
	collectorID = "researcher"
	numPhones   = 2
	// setupTimeout bounds the wait for scripts and proxies to install.
	setupTimeout = 10 * time.Second
)

func phoneID(i int) string { return fmt.Sprintf("phone-%d", i) }

// world is the production path and nothing else: a real xmpp.Server on
// loopback TCP, one collector node and numPhones phone nodes attached
// through transport.DialXMPP, all on the real clock, phones with file-backed
// outboxes, no observability registry.
type world struct {
	wl  *workload
	dir string

	srv     *xmpp.Server
	colM    *transport.XMPPMessenger
	col     *core.Node
	phoneM  []*transport.XMPPMessenger
	phones  []*core.Node
	brokers []*pubsub.Broker // each phone's context broker for collectorID

	scriptErrs chan error
	// reconnects counts connections re-established after set-up. The runs
	// inject no faults, so any reconnect is the stack dropping a healthy
	// stream; it also voids the traced pass's per-connection envelope order.
	reconnects atomic.Int64
}

// buildWorld assembles the world and returns once every script runs and
// every proxy subscription is installed, so a publication into any phone's
// broker reaches the collector log. The outbox files live in a fresh
// directory under stateDir. tr, when non-nil, wraps every node's messenger
// in the timing decorator.
func buildWorld(wl *workload, stateDir string, tr *tracer) (w *world, err error) {
	w = &world{wl: wl, scriptErrs: make(chan error, 1)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.dir, err = os.MkdirTemp(stateDir, "world-"); err != nil {
		return w, err
	}
	onScriptError := func(name string, err error) {
		select {
		case w.scriptErrs <- fmt.Errorf("script %s: %w", name, err):
		default:
		}
	}

	w.srv = xmpp.NewServer(xmpp.ServerConfig{AllowAutoRegister: true})
	for i := 0; i < numPhones; i++ {
		w.srv.Associate(collectorID, phoneID(i))
	}
	if err := w.srv.Start(); err != nil {
		return w, fmt.Errorf("start switchboard: %w", err)
	}
	clk := vclock.Real{}

	w.colM, err = transport.DialXMPP(w.srv.Addr(), collectorID, "pw", "pc")
	if err != nil {
		return w, fmt.Errorf("dial collector: %w", err)
	}
	w.colM.OnOnline(func() { w.reconnects.Add(1) })
	w.col, err = core.NewNode(core.Config{
		ID: collectorID, Mode: core.CollectorMode, Clock: clk,
		Messenger:   tr.wrapCollector(w.colM),
		FlushPolicy: core.FlushImmediate, OnScriptError: onScriptError,
	})
	if err != nil {
		return w, fmt.Errorf("collector node: %w", err)
	}

	// Every phone connects before anything is deployed: a @subscribe bounced
	// off an offline phone is held back by the per-channel FIFO until the
	// 30 s retransmission timer, which would make set-up time bimodal.
	for i := 0; i < numPhones; i++ {
		m, err := transport.DialXMPP(w.srv.Addr(), phoneID(i), "pw", "phone")
		if err != nil {
			return w, fmt.Errorf("dial %s: %w", phoneID(i), err)
		}
		w.phoneM = append(w.phoneM, m)
		m.OnOnline(func() { w.reconnects.Add(1) })
		n, err := core.NewNode(core.Config{
			ID: phoneID(i), Mode: core.DeviceMode, Clock: clk,
			Messenger:   tr.wrapPhone(m, i),
			OutboxPath:  filepath.Join(w.dir, phoneID(i)+".outbox"),
			FlushPolicy: wl.flush, OnScriptError: onScriptError,
		})
		if err != nil {
			return w, fmt.Errorf("%s node: %w", phoneID(i), err)
		}
		w.phones = append(w.phones, n)
	}

	if err := w.col.DeployLocal("sink.js", wl.collectorJS); err != nil {
		return w, fmt.Errorf("deploy collector script: %w", err)
	}
	if wl.phoneScript != "" {
		if err := w.col.Deploy(wl.phoneScript, wl.phoneScriptSource()); err != nil {
			return w, fmt.Errorf("deploy %s: %w", wl.phoneScript, err)
		}
	}
	if err := w.awaitReady(); err != nil {
		return w, err
	}
	return w, nil
}

// awaitReady waits until each phone has a context for the collector whose
// broker has a subscriber on every channel the workload needs — the proxy
// for the wire channel and, with a phone script, the script's own
// subscription — and until the control traffic that installed them has been
// acknowledged, so the run starts from empty outboxes.
func (w *world) awaitReady() error {
	need := []string{w.wl.wireChannel}
	if w.wl.channel != w.wl.wireChannel {
		need = append(need, w.wl.channel)
	}
	w.brokers = make([]*pubsub.Broker, len(w.phones))
	deadline := time.Now().Add(setupTimeout)
	for {
		ready := w.col.Pending() == 0
		for i, p := range w.phones {
			if ctx := p.Contexts()[collectorID]; ctx != nil {
				w.brokers[i] = ctx.Broker()
			}
			if w.brokers[i] == nil || p.Pending() != 0 {
				ready = false
				continue
			}
			for _, ch := range need {
				if !w.brokers[i].HasSubscribers(ch) {
					ready = false
				}
			}
		}
		if ready {
			return nil
		}
		select {
		case err := <-w.scriptErrs:
			return err
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: proxies not installed after %v", setupTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pending sums the buffered, unacknowledged messages over all nodes.
func (w *world) pending() int {
	n := w.col.Pending()
	for _, p := range w.phones {
		n += p.Pending()
	}
	return n
}

// uplinkBytes is what the phone owners pay for: envelope bytes the phones
// handed to the switchboard connection.
func (w *world) uplinkBytes() int64 {
	var n int64
	for _, p := range w.phones {
		n += p.Endpoint().Stats().BytesSent
	}
	return n
}

// close tears the world down: connections first, so no traffic reaches a
// closed outbox, then nodes, the switchboard, and the outbox files.
func (w *world) close() {
	for _, m := range w.phoneM {
		m.Close()
	}
	if w.colM != nil {
		w.colM.Close()
	}
	for _, p := range w.phones {
		p.Close()
	}
	if w.col != nil {
		w.col.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
