// Stanza wire framing. A stream carries two kinds of stanza, told apart by
// their first byte:
//
//	'<'   one XML stanza per line: the stream header, auth, success/failure,
//	      presence, iq, and the server's type="error" message bounce. Every
//	      stanza this implementation writes is a single line — xml.Marshal
//	      escapes CR/LF in both attributes and character data — so the reader
//	      is line-oriented rather than a streaming XML decoder.
//	0xB3  a binary message frame. Every message travels this way, body bytes
//	      verbatim:
//
//	        uvarint len + bytes  × 4:  to, from, id, trace field (TraceAttr)
//	        uvarint len + bytes:       body (arbitrary bytes)
//	        '\n'                       terminator (framing self-check)
//
// Version check: both stream headers carry bin="1", and a peer whose header
// lacks it is refused — the server answers with a failure stanza and closes,
// the client's Dial returns an error. There is no other message encoding to
// fall back to.
package xmpp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sync"
)

// frameMagic is the first byte of a binary message frame. It is deliberately
// outside the valid-UTF-8-start range of any stanza line.
const frameMagic = 0xB3

// streamBinAttr is the value of the stream header's bin attribute: the wire
// version both ends must announce.
const streamBinAttr = "1"

// reasonWireVersion is the failure reason (server) and Dial error (client)
// for a peer whose stream header does not announce streamBinAttr.
const reasonWireVersion = "unsupported-wire-version"

// Wire size bounds: hostile peers must not make the reader allocate
// unboundedly off a forged length prefix.
const (
	maxLineLen    = 1 << 20 // one XML stanza line
	maxFrameField = 1 << 12 // to / from / id / trace field
	maxFrameBody  = 1 << 24 // message body
)

var errFrameTooBig = errors.New("xmpp: frame field exceeds limit")

// wireBufPool recycles stanza write buffers (XML lines, binary frames, and
// coalesced batch writes), so steady-state sends allocate nothing for
// framing.
var wireBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

func getWireBuf() *[]byte { return wireBufPool.Get().(*[]byte) }

func putWireBuf(bp *[]byte, buf []byte) {
	if buf != nil {
		*bp = buf[:0]
	}
	wireBufPool.Put(bp)
}

// appendFrame appends one binary message frame to dst.
func appendFrame(dst []byte, to, from, id, trace string, body []byte) []byte {
	dst = append(dst, frameMagic)
	dst = appendFrameStr(dst, to)
	dst = appendFrameStr(dst, from)
	dst = appendFrameStr(dst, id)
	dst = appendFrameStr(dst, trace)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return append(dst, '\n')
}

func appendFrameStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// stanzaReader reads one stanza at a time off a connection, sniffing each
// stanza's representation from its first byte. It owns all read buffering on
// the connection (nothing else may read concurrently).
type stanzaReader struct {
	r *bufio.Reader
}

func newStanzaReader(r io.Reader) *stanzaReader {
	return &stanzaReader{r: bufio.NewReaderSize(r, 4096)}
}

// next returns the next stanza: either a binary message frame (isFrame true,
// m populated — its body buffer is freshly allocated and owned by the
// caller) or one XML line (isFrame false; line aliases the reader's buffer
// and is valid only until the next call).
func (sr *stanzaReader) next() (m Stanza, isFrame bool, line []byte, err error) {
	for {
		b, err := sr.r.Peek(1)
		if err != nil {
			return Stanza{}, false, nil, err
		}
		switch b[0] {
		case '\n', '\r':
			sr.r.Discard(1) // tolerate blank separator lines
		case frameMagic:
			m, err := sr.readFrame()
			return m, true, nil, err
		default:
			line, err := sr.readLine()
			return Stanza{}, false, line, err
		}
	}
}

// readFrame parses one binary message frame (the magic byte is still
// unconsumed).
func (sr *stanzaReader) readFrame() (Stanza, error) {
	sr.r.Discard(1)
	var m Stanza
	var err error
	if m.To, err = sr.readFrameStr(); err != nil {
		return m, err
	}
	if m.From, err = sr.readFrameStr(); err != nil {
		return m, err
	}
	if m.ID, err = sr.readFrameStr(); err != nil {
		return m, err
	}
	if m.T, err = sr.readFrameStr(); err != nil {
		return m, err
	}
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return m, err
	}
	if n > maxFrameBody {
		return m, errFrameTooBig
	}
	// The body is the one deliberate copy on this path: it outlives the read
	// buffer (the transport aliases decoded values straight into it), so it
	// must be a fresh GC-owned allocation handed to the consumer.
	body := make([]byte, n)
	if _, err := io.ReadFull(sr.r, body); err != nil {
		return m, err
	}
	nl, err := sr.r.ReadByte()
	if err != nil {
		return m, err
	}
	if nl != '\n' {
		return m, errors.New("xmpp: unterminated frame")
	}
	m.Body = body
	return m, nil
}

func (sr *stanzaReader) readFrameStr() (string, error) {
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return "", err
	}
	if n > maxFrameField {
		return "", errFrameTooBig
	}
	if n == 0 {
		return "", nil
	}
	// Small fields fit the read buffer: Peek + copy-to-string is one
	// allocation, with no intermediate []byte.
	if b, err := sr.r.Peek(int(n)); err == nil {
		s := string(b)
		sr.r.Discard(int(n))
		return s, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(sr.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readLine reads one newline-terminated stanza line, tolerating lines larger
// than the read buffer up to maxLineLen. The returned slice aliases the
// reader's buffer when the line fits (the common case).
func (sr *stanzaReader) readLine() ([]byte, error) {
	line, err := sr.r.ReadSlice('\n')
	if err == nil {
		return trimEOL(line), nil
	}
	if err != bufio.ErrBufferFull {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	buf := append([]byte(nil), line...)
	for {
		line, err = sr.r.ReadSlice('\n')
		buf = append(buf, line...)
		if len(buf) > maxLineLen {
			return nil, errors.New("xmpp: stanza line too long")
		}
		if err == nil {
			return trimEOL(buf), nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func trimEOL(line []byte) []byte {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line
}

// elementName returns the start element's local name for a stanza line, or
// "" when the line is not an XML start element.
func elementName(line []byte) string {
	if len(line) == 0 || line[0] != '<' {
		return ""
	}
	i := 1
	for i < len(line) {
		c := line[i]
		if c == ' ' || c == '\t' || c == '>' || c == '/' {
			break
		}
		i++
	}
	if i == 1 {
		return ""
	}
	return string(line[1:i])
}

// parseStreamHeader parses a stream-open line: `<stream to="..." bin="1">`.
// Stream elements stay open for the connection's lifetime, so they are never
// well-formed standalone XML — only the start tag is tokenized.
func parseStreamHeader(line []byte) (hdr streamHeader, ok bool) {
	tok, err := xml.NewDecoder(bytes.NewReader(line)).Token()
	start, isStart := tok.(xml.StartElement)
	if err != nil || !isStart || start.Name.Local != "stream" {
		return hdr, false
	}
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "to":
			hdr.To = a.Value
		case "from":
			hdr.From = a.Value
		case "bin":
			hdr.Bin = a.Value
		}
	}
	return hdr, true
}

// streamOpenLine renders a stream header announcing the wire version.
func streamOpenLine(attr, value string) []byte {
	return []byte(fmt.Sprintf(`<stream %s=%q bin=%q>`+"\n", attr, value, streamBinAttr))
}
