package core

import "sync"

// Privacy is the device owner's fine-grained sharing control (§3.3 of the
// paper: "users are given fine-grained control over what sensor information
// they wish to share to protect their privacy", changeable at any time from
// the application interface).
//
// The control is per channel. A hidden channel is enforced at two points on
// the device:
//
//   - proxy subscriptions created on behalf of remote collectors are
//     deactivated, so no data on the channel leaves the phone; and
//   - subscriptions made by remotely-deployed scripts are deactivated, so
//     experiment code cannot read the sensor locally either.
//
// Deactivation uses the broker's release mechanism, so sensors see the
// demand disappear and power down — hiding a channel also stops its sensor
// from sampling.
type Privacy struct {
	mu        sync.Mutex
	hidden    map[string]bool
	listeners []func(channel string, shared bool)
}

// NewPrivacy returns a policy that shares everything (the opportunistic
// default of §3.3: install and go, adjust later).
func NewPrivacy() *Privacy {
	return &Privacy{hidden: make(map[string]bool)}
}

// SetShared changes whether a channel's data may be used and shared.
func (p *Privacy) SetShared(channel string, share bool) {
	p.mu.Lock()
	was := !p.hidden[channel]
	if share {
		delete(p.hidden, channel)
	} else {
		p.hidden[channel] = true
	}
	listeners := make([]func(string, bool), len(p.listeners))
	copy(listeners, p.listeners)
	p.mu.Unlock()
	if was == share {
		return
	}
	for _, fn := range listeners {
		fn(channel, share)
	}
}

// shared reports whether a channel may be used and shared. A nil Privacy
// shares everything.
func (p *Privacy) shared(channel string) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.hidden[channel]
}

// onChange registers a listener for sharing changes; the node uses it to
// re-gate live subscriptions.
func (p *Privacy) onChange(fn func(channel string, shared bool)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.listeners = append(p.listeners, fn)
}
