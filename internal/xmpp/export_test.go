package xmpp

import "pogo/internal/obs"

// Production accounts are made at first login, bounces go unhandled, and the
// trace field is written straight into a frame; tests make accounts ahead,
// watch bounces, and render a trace field on its own.

// OnError sets the handler for bounced messages (recipient not on the
// roster); id is the original message's id.
func (c *Client) OnError(fn func(id, reason string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onError = fn
}

// TraceAttr renders a batch's trace IDs as the frame's trace field: each ID
// as 8 bytes little-endian, in batch order, empty when every ID is zero.
// Only the first maxTraceAttrIDs are rendered — switchboard hop tracing is
// best-effort, and an over-long field would make the server drop the stream
// (and with it the batch, on every retransmission).
func TraceAttr(traces []obs.TraceID) string {
	return string(appendTraceWords(nil, traceWords(traces)))
}

// AddAccount registers (or updates) an account.
func (s *Switchboard) AddAccount(user, password string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accounts[user] = password
}
