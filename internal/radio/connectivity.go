package radio

import "sync"

// Interface identifies a network interface class.
type Interface int

// Interface values. InterfaceNone means the device is offline (airplane
// mode, roaming with data disabled, or out of coverage).
const (
	InterfaceNone Interface = iota + 1
	InterfaceCellular
	InterfaceWifi
)

// String returns the interface name.
func (i Interface) String() string {
	switch i {
	case InterfaceNone:
		return "none"
	case InterfaceCellular:
		return "cellular"
	case InterfaceWifi:
		return "wifi"
	default:
		return "?"
	}
}

// DataLink is the minimal transfer capability the transport layer needs;
// both *Modem and *Wifi implement it.
type DataLink interface {
	Transfer(tx, rx int64, onDone func())
}

var (
	_ DataLink = (*Modem)(nil)
	_ DataLink = (*Wifi)(nil)
)

// Connectivity is the simulated ConnectivityManager: it tracks which
// interface is active as the user moves in and out of coverage, and notifies
// listeners on handover. Phones have no transparent TCP handover between
// interfaces (§4.6), so Pogo's transport reconnects on every change.
type Connectivity struct {
	mu        sync.Mutex
	active    Interface
	cellular  DataLink
	wifi      DataLink
	listeners []func(old, new Interface)
}

// NewConnectivity returns a manager with the given links; either may be nil.
// The initial active interface is cellular when present, else Wi-Fi when
// present, else none.
func NewConnectivity(cellular, wifi DataLink) *Connectivity {
	c := &Connectivity{cellular: cellular, wifi: wifi, active: InterfaceNone}
	if cellular != nil {
		c.active = InterfaceCellular
	} else if wifi != nil {
		c.active = InterfaceWifi
	}
	return c
}

// activeInterface returns the currently active interface.
func (c *Connectivity) activeInterface() Interface {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Link returns the DataLink for the active interface, or nil when offline.
func (c *Connectivity) Link() DataLink {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.linkLocked()
}

func (c *Connectivity) linkLocked() DataLink {
	switch c.active {
	case InterfaceCellular:
		return c.cellular
	case InterfaceWifi:
		return c.wifi
	default:
		return nil
	}
}

// SetActive switches the active interface, notifying listeners when it
// actually changes.
func (c *Connectivity) SetActive(iface Interface) {
	c.mu.Lock()
	if c.active == iface {
		c.mu.Unlock()
		return
	}
	old := c.active
	c.active = iface
	listeners := make([]func(Interface, Interface), len(c.listeners))
	copy(listeners, c.listeners)
	c.mu.Unlock()
	for _, fn := range listeners {
		fn(old, iface)
	}
}

// OnChange registers a handover listener.
func (c *Connectivity) OnChange(fn func(old, new Interface)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, fn)
}

// Online reports whether any interface is active.
func (c *Connectivity) Online() bool { return c.activeInterface() != InterfaceNone }
