package pubsub

import "pogo/internal/msg"

// No handler in production writes to a message; tests check that one that
// does gets a private tree. Tests also list the
// channels with an active subscription; production asks per channel
// (HasSubscribers, Subscriptions).

// MutableMessage returns a privately owned tree of the event's message for a
// handler that writes: each call builds a fresh one (msg.Raw.Map).
func (e *Event) MutableMessage() msg.Map {
	return e.Message.Map()
}

// Channels returns every channel that currently has at least one active
// subscription.
func (b *Broker) Channels() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for ch, subs := range b.subs {
		for _, s := range subs {
			if s.active.Load() {
				out = append(out, ch)
				break
			}
		}
	}
	return out
}
