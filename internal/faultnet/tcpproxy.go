package faultnet

import (
	"io"
	"net"
	"sync"
)

// TCPProxy sits between a real client and a real server socket and breaks
// their connections on demand — the "TCP session gone stale" failure from
// §4.6, reproduced with actual sockets for the XMPP robustness tests.
//
// Unlike the in-memory fault layer, the proxy is not deterministic (it rides
// the kernel's scheduler); it exists to prove the real client survives real
// socket deaths, while seeded chaos runs stay on the simulated switchboard.
type TCPProxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewTCPProxy starts a proxy on an ephemeral localhost port forwarding to
// target (an addr like "127.0.0.1:5222").
func NewTCPProxy(target string) (*TCPProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &TCPProxy{target: target, ln: ln, conns: make(map[net.Conn]bool)}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address; point clients here.
func (p *TCPProxy) Addr() string { return p.ln.Addr().String() }

// DropConns severs every live proxied connection without touching the
// listener: both sides see their established session die mid-stream.
func (p *TCPProxy) DropConns() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close shuts the proxy down, severing all connections.
func (p *TCPProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.DropConns()
	p.wg.Wait()
}

func (p *TCPProxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			client.Close()
			continue
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		p.track(client, server)
	}
}

// track registers the pair and pipes bytes both ways until either side dies,
// then severs both.
func (p *TCPProxy) track(client, server net.Conn) {
	p.mu.Lock()
	p.conns[client] = true
	p.conns[server] = true
	p.mu.Unlock()
	untrack := func() {
		client.Close()
		server.Close()
		p.mu.Lock()
		delete(p.conns, client)
		delete(p.conns, server)
		p.mu.Unlock()
	}
	var once sync.Once
	pipe := func(dst, src net.Conn) {
		defer p.wg.Done()
		io.Copy(dst, src)
		once.Do(untrack)
	}
	p.wg.Add(2)
	go pipe(server, client)
	go pipe(client, server)
}
