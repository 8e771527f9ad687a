// Package xmpp implements the subset of the XMPP instant-messaging protocol
// that Pogo relies on (§4.6 of the paper): XML streams over TCP, PLAIN-style
// authentication, rosters ("buddy lists" capturing which devices are
// assigned to which researchers), presence, and messages. Control stanzas are
// newline-delimited XML; messages travel as binary frames (see wire.go).
//
// The paper runs an off-the-shelf Openfire server; this package is the
// equivalent switchboard from scratch: a socket-free routing core and a TCP
// server. It keeps XMPP's weak delivery guarantees — a bounded offline queue
// that evicts its oldest stanza — because Pogo implements its own end-to-end
// acknowledgements on top (internal/transport).
package xmpp

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pogo/internal/obs"
)

// Domain is the default server domain used in JIDs.
const Domain = "pogo"

// JID is a bare or full Jabber identifier: user@domain[/resource].
type JID string

// MakeJID builds a bare JID from a user name.
func MakeJID(user string) JID { return JID(user + "@" + Domain) }

// Bare strips the resource part.
func (j JID) Bare() JID {
	if i := strings.IndexByte(string(j), '/'); i >= 0 {
		return j[:i]
	}
	return j
}

// User returns the local part.
func (j JID) User() string {
	s := string(j.Bare())
	if i := strings.IndexByte(s, '@'); i >= 0 {
		return s[:i]
	}
	return s
}

// String returns the JID text.
func (j JID) String() string { return string(j) }

// streamHeader opens a stream in either direction. Bin is the wire version
// (streamBinAttr); a peer whose header lacks it is refused.
type streamHeader struct {
	To, From, Bin string
}

// authStanza carries simplified PLAIN credentials and the desired resource.
type authStanza struct {
	XMLName  xml.Name `xml:"auth"`
	User     string   `xml:"user,attr"`
	Password string   `xml:"password,attr"`
	Resource string   `xml:"resource,attr"`
}

// successStanza acknowledges authentication and reports the bound full JID.
type successStanza struct {
	XMLName xml.Name `xml:"success"`
	JID     string   `xml:"jid,attr"`
}

// failureStanza rejects authentication.
type failureStanza struct {
	XMLName xml.Name `xml:"failure"`
	Reason  string   `xml:"reason,attr"`
}

// presenceStanza announces availability changes of roster contacts.
type presenceStanza struct {
	XMLName xml.Name `xml:"presence"`
	From    string   `xml:"from,attr"`
	Type    string   `xml:"type,attr"` // "available" or "unavailable"
}

// Stanza is one routed message, carried on the wire as a binary frame
// (wire.go). Pogo puts its transport envelopes in Body. T optionally carries
// the causal trace IDs of the enveloped batch (see TraceAttr) so the
// switchboard can record route/offline/replay hops without parsing the
// opaque body.
type Stanza struct {
	To, From, ID, T string
	Body            []byte
}

// messageStanza is the one XML message left: the server's type="error"
// bounce of a message to someone not on the sender's roster, reason in Body.
type messageStanza struct {
	XMLName xml.Name `xml:"message"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr"`
	ID      string   `xml:"id,attr,omitempty"`
	Type    string   `xml:"type,attr,omitempty"`
	Body    string   `xml:"body"`
}

// maxTraceAttrIDs is how many 16-hex-digit IDs plus separating commas fit in
// one frame field (17n − 1 ≤ maxFrameField).
const maxTraceAttrIDs = (maxFrameField + 1) / 17

// TraceAttr renders a batch's trace IDs as the frame's trace field:
// fixed-width lowercase hex, comma-joined, empty when every ID is zero. Only
// the first maxTraceAttrIDs are rendered — switchboard hop tracing is
// best-effort, and an over-long field would make the server drop the stream
// (and with it the batch, on every retransmission).
func TraceAttr(traces []obs.TraceID) string {
	if len(traces) > maxTraceAttrIDs {
		traces = traces[:maxTraceAttrIDs]
	}
	any := false
	for _, t := range traces {
		if t != 0 {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var sb strings.Builder
	for i, t := range traces {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

// ParseTraceAttr parses a trace field back into trace IDs; malformed
// segments decode as 0 (untraced) rather than failing the stanza.
func ParseTraceAttr(s string) []obs.TraceID {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]obs.TraceID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			v = 0
		}
		out = append(out, obs.TraceID(v))
	}
	return out
}

// iqStanza carries roster queries.
type iqStanza struct {
	XMLName xml.Name     `xml:"iq"`
	Type    string       `xml:"type,attr"` // "get" or "result"
	ID      string       `xml:"id,attr"`
	Roster  *rosterQuery `xml:"query,omitempty"`
}

type rosterQuery struct {
	XMLName xml.Name     `xml:"query"`
	Items   []rosterItem `xml:"item"`
}

type rosterItem struct {
	JID string `xml:"jid,attr"`
}

// marshalStanza renders a stanza to bytes for a framed write.
func marshalStanza(v any) ([]byte, error) {
	b, err := xml.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("xmpp: marshal %T: %w", v, err)
	}
	return b, nil
}

// writeStanza writes v as one XML stanza line. The caller serializes writes
// on w.
func writeStanza(w io.Writer, v any) error {
	b, err := marshalStanza(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
