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
//	        uvarint len + bytes  × 4:  to, from, id, trace field (TraceAttr:
//	                                   8 bytes little-endian per trace ID)
//	        uvarint len + bytes:       body (arbitrary bytes)
//	        '\n'                       terminator (framing self-check)
//
// Version check: both stream headers carry bin="2", and a peer whose header
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
	"strconv"
	"unsafe"

	"pogo/internal/msg"
)

// frameMagic is the first byte of a binary message frame. It is deliberately
// outside the valid-UTF-8-start range of any stanza line.
const frameMagic = 0xB3

// streamBinAttr is the value of the stream header's bin attribute: the wire
// version both ends must announce.
const streamBinAttr = "2"

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

// appendFrame appends one binary message frame to dst.
func appendFrame(dst []byte, to, from, id, trace string, body []byte) []byte {
	dst = append(dst, frameMagic)
	dst = appendFrameStr(dst, to)
	dst = appendFrameStr(dst, from)
	dst = appendFrameStr(dst, id)
	dst = appendFrameStr(dst, trace)
	dst = appendFrameStr(dst, body)
	return append(dst, '\n')
}

// appendRawFrame appends m's frame to dst, rendering the recipient's JID,
// the id and the trace field (TraceAttr's bytes) straight into the buffer.
// The from field is empty: the server stamps the session's own.
func appendRawFrame(dst []byte, m *RawMessage) []byte {
	dst = append(dst, frameMagic)
	dst = binary.AppendUvarint(dst, uint64(len(m.To)+1+len(domain)))
	dst = append(append(append(dst, m.To...), '@'), domain...)
	dst = append(dst, 0)
	var id [20]byte
	dst = appendFrameStr(dst, strconv.AppendUint(id[:0], m.ID, 10))
	traces := traceWords(m.Traces)
	dst = binary.AppendUvarint(dst, uint64(8*len(traces)))
	dst = appendTraceWords(dst, traces)
	dst = appendFrameStr(dst, m.Body)
	return append(dst, '\n')
}

func appendFrameStr[S string | []byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// frameKeep is the largest frame buffer a connection keeps from one frame
// to the next, on either side. A frame that needs more is read into a
// buffer of its own, which goes with that frame, and a write that needs
// more drops its buffer once it is out (keepWriteBuf), so one huge frame
// does not pin its size to the connection.
const frameKeep = 64 << 10

// keepWriteBuf returns buf, a write that has gone out, emptied for the
// connection's next one, or nil when it grew past frameKeep.
func keepWriteBuf(buf []byte) []byte {
	if cap(buf) > frameKeep {
		return nil
	}
	return buf[:0]
}

// stanzaReader reads one stanza at a time off a connection, sniffing each
// stanza's representation from its first byte. It owns all read buffering on
// the connection (nothing else may read concurrently).
type stanzaReader struct {
	r *bufio.Reader
	// buf holds the last frame's id, trace field and body, in that order;
	// the next frame is read over them.
	buf []byte
}

func newStanzaReader(r io.Reader) *stanzaReader {
	return &stanzaReader{r: bufio.NewReaderSize(r, 4096)}
}

// next returns the next stanza: either a binary message frame (isFrame true,
// m populated) or one XML line (isFrame false). Either way the stanza views
// the reader's buffers and is valid only until the next call: a frame's id,
// trace field and body, and a line. A caller that keeps a frame longer keeps
// m.owned().
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
// unconsumed). A frame up to frameKeep bytes costs no allocation once the
// reader's buffer has grown to it: to and from are interned — a
// switchboard's few users, over and over — and the id, trace field and body
// are read into the buffer, one after the other.
func (sr *stanzaReader) readFrame() (Stanza, error) {
	sr.r.Discard(1)
	var m Stanza
	var err error
	if m.To, err = sr.readInterned(); err != nil {
		return m, err
	}
	if m.From, err = sr.readInterned(); err != nil {
		return m, err
	}
	buf, err := sr.appendField(sr.buf[:0])
	if err != nil {
		return m, err
	}
	idLen := len(buf)
	if buf, err = sr.appendField(buf); err != nil {
		return m, err
	}
	k := len(buf)
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return m, err
	}
	if n > maxFrameBody {
		return m, errFrameTooBig
	}
	buf = sr.room(buf, int(n))
	body := buf[k : k+int(n) : k+int(n)]
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
	m.ID, m.T = fieldViews(buf, idLen, k)
	m.Body = body
	return m, nil
}

// fieldViews returns the id and trace field at the front of a frame's
// buffer: buf[:idLen] and buf[idLen:k], as strings viewing those bytes.
func fieldViews(buf []byte, idLen, k int) (id, trace string) {
	return unsafe.String(unsafe.SliceData(buf), idLen), unsafe.String(unsafe.SliceData(buf[idLen:]), k-idLen)
}

// room returns buf, the frame read so far, with room for n more bytes: in
// the reader's own buffer while the frame fits frameKeep, else in a buffer
// of the frame's own.
func (sr *stanzaReader) room(buf []byte, n int) []byte {
	need := len(buf) + n
	if need <= cap(buf) {
		return buf
	}
	if need > frameKeep {
		return append(make([]byte, 0, need), buf...)
	}
	grown := append(make([]byte, 0, min(max(need, 2*cap(buf)), frameKeep)), buf...)
	sr.buf = grown
	return grown
}

// owned returns m with its id, trace field and body copied into one
// allocation of their own, out of the reader's buffer they view: what a
// caller keeps of a stanza past the call that handed it over.
func (m Stanza) owned() Stanza {
	idLen, k := len(m.ID), len(m.ID)+len(m.T)
	buf := make([]byte, k+len(m.Body))
	copy(buf, m.ID)
	copy(buf[idLen:], m.T)
	copy(buf[k:], m.Body)
	m.ID, m.T = fieldViews(buf, idLen, k)
	m.Body = buf[k:]
	return m
}

// fieldLen reads a frame field's length prefix and bounds it.
func (sr *stanzaReader) fieldLen() (int, error) {
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return 0, err
	}
	if n > maxFrameField {
		return 0, errFrameTooBig
	}
	return int(n), nil
}

// readInterned reads a frame field as an interned string.
func (sr *stanzaReader) readInterned() (string, error) {
	n, err := sr.fieldLen()
	if err != nil || n == 0 {
		return "", err
	}
	// A field fits the read buffer: intern it where it lies.
	b, err := sr.r.Peek(n)
	if err != nil {
		return "", err
	}
	s := msg.Intern(b)
	sr.r.Discard(n)
	return s, nil
}

// appendField appends a frame field's bytes to buf, the frame read so far.
func (sr *stanzaReader) appendField(buf []byte) ([]byte, error) {
	n, err := sr.fieldLen()
	if err != nil {
		return buf, err
	}
	buf = sr.room(buf, n)
	_, err = io.ReadFull(sr.r, buf[len(buf):len(buf)+n])
	return buf[:len(buf)+n], err
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
