package core

import (
	"errors"
	"fmt"
	"sort"

	"pogo/internal/msg"
	"pogo/internal/script"
)

// What a UI or an operator would do, and what a test reads back: no
// binary starts a manual script, undeploys, or reads a context's scripts
// or the hidden channels. The device side of each (the undeploy control
// message, a stopped script, the privacy filter) is production code these
// reach.

// ScriptNames lists deployed scripts in deployment order.
func (c *Context) ScriptNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Script returns a deployed script instance by name, or nil.
func (c *Context) Script(name string) *script.Script {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.scripts[name]; ok {
		return d.inst
	}
	return nil
}

// StartScript manually starts a deployed script that opted out of
// autostart (§4.4: "it will not run until the user explicitly starts it
// through the UI" — this is that UI action).
func (c *Context) StartScript(name string) error {
	c.mu.Lock()
	d, ok := c.scripts[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no script %q", name)
	}
	return d.inst.Start()
}

// Names lists the logs that have content.
func (l *LogStore) Names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.logs))
	for name := range l.logs {
		out = append(out, name)
	}
	return out
}

// Undeploy removes a script from every device.
func (n *Node) Undeploy(name string) error {
	if n.cfg.Mode != CollectorMode {
		return errors.New("core: Undeploy requires collector mode")
	}
	n.mu.Lock()
	delete(n.deploys, name)
	for i, d := range n.deploySeq {
		if d == name {
			n.deploySeq = append(n.deploySeq[:i], n.deploySeq[i+1:]...)
			break
		}
	}
	n.mu.Unlock()
	for _, peer := range n.cfg.Messenger.Peers() {
		n.sendControl(peer, chanUndeploy, msg.Map{"name": name})
	}
	n.Flush()
	return nil
}

// Hidden lists the currently hidden channels, sorted.
func (p *Privacy) Hidden() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.hidden))
	for ch := range p.hidden {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}
