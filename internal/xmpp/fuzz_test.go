package xmpp

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"runtime"
	"strings"
	"testing"
)

// FuzzParseStanza feeds arbitrary bytes to stanzaReader, the reader that
// faces raw TCP bytes from any client on the server and from the server on
// every client: XML lines, binary frames, forged length prefixes, and the
// same input cut short at every offset. It must never panic, never hand back
// a field, body, or line past its bound, never allocate more than one
// over-claimed body beyond its input, and every frame it accepts must
// re-encode to a frame it reads back identically.
func FuzzParseStanza(f *testing.F) {
	for _, v := range []any{
		authStanza{User: "alice", Password: "pw", Resource: "phone"},
		successStanza{JID: "alice@pogo/phone"},
		failureStanza{Reason: "bad-credentials"},
		presenceStanza{From: "bob@pogo", Type: "available"},
		messageStanza{To: "b@pogo", ID: "m1", Type: "error", Body: "recipient-offline"},
		iqStanza{Type: "result", ID: "iq-2", Roster: &rosterQuery{Items: []rosterItem{{JID: "c@pogo"}}}},
	} {
		b, err := marshalStanza(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(b, '\n'))
	}
	frame := appendFrame(nil, "b@pogo", "a@pogo", "m1", "0000000000000001", []byte{0x00, 0xff, '\n', '<', frameMagic})
	f.Add(append(streamOpenLine("to", Domain), frame...))
	f.Add(append(append([]byte("\r\n\n"), frame...), frame...))
	f.Add(frame[:len(frame)-1])                                                 // no terminator
	f.Add(append(frame[:len(frame)-1:len(frame)-1], 'x'))                       // wrong terminator
	f.Add(binary.AppendUvarint([]byte{frameMagic}, 1<<40))                      // forged field length
	f.Add(binary.AppendUvarint([]byte{frameMagic, 0, 0, 0, 0}, maxFrameBody+1)) // forged body length
	f.Add(binary.AppendUvarint([]byte{frameMagic, 0, 0, 0, 0}, maxFrameBody))   // in-bound claim, no body
	f.Add([]byte("<presence from='" + strings.Repeat("y", 5000) + "'/>\n"))     // longer than the read buffer
	f.Add([]byte(`<stream to="pogo" bin='1' to="&amp;&#x41;">` + "\n<weird/>\n\x00\x01\xff<"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Pass 1, measured: a stanza is only accepted when its bytes are
		// really there, so everything but one rejected over-claim is paid
		// for by input.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		drainStanzas(t, data, false)
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, uint64(maxFrameBody+2*maxLineLen+64*len(data)+1<<20); got > max {
			t.Fatalf("reading %d input bytes allocated %d bytes (bound %d)", len(data), got, max)
		}
		// Pass 2: bounds and round trip of everything accepted.
		drainStanzas(t, data, true)
		// Pass 3: truncation never panics (every offset for inputs under 64 bytes).
		step := 1 + len(data)/64
		for cut := 0; cut < len(data); cut += step {
			drainStanzas(t, data[:cut], false)
		}
	})
}

// drainStanzas reads data to the first error the way both read loops do,
// with check asserting the reader's contract on each stanza.
func drainStanzas(t *testing.T, data []byte, check bool) {
	sr := newStanzaReader(bytes.NewReader(data))
	for {
		m, isFrame, line, err := sr.next()
		if err != nil {
			return
		}
		if !check {
			continue
		}
		if !isFrame {
			if len(line) > maxLineLen {
				t.Fatalf("line of %d bytes exceeds maxLineLen", len(line))
			}
			switch elementName(line) {
			case "stream":
				parseStreamHeader(line)
			case "auth":
				xml.Unmarshal(line, new(authStanza))
			case "message":
				xml.Unmarshal(line, new(messageStanza))
			case "presence":
				xml.Unmarshal(line, new(presenceStanza))
			case "iq":
				xml.Unmarshal(line, new(iqStanza))
			}
			continue
		}
		for _, field := range []string{m.To, m.From, m.ID, m.T} {
			if len(field) > maxFrameField {
				t.Fatalf("frame field of %d bytes exceeds maxFrameField", len(field))
			}
		}
		if len(m.Body) > maxFrameBody {
			t.Fatalf("frame body of %d bytes exceeds maxFrameBody", len(m.Body))
		}
		re := appendFrame(nil, m.To, m.From, m.ID, m.T, m.Body)
		m2, isFrame2, _, err := newStanzaReader(bytes.NewReader(re)).next()
		if err != nil || !isFrame2 || m2.To != m.To || m2.From != m.From || m2.ID != m.ID || m2.T != m.T || !bytes.Equal(m2.Body, m.Body) {
			t.Fatalf("accepted frame does not round-trip: %+v -> %+v (%v)", m, m2, err)
		}
	}
}
