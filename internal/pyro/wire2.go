package pyro

// The binary framing every connection speaks after the handshake.
//
// A frame is a 4-byte big-endian length prefix — the same outer shape
// as the JSON hello, so both share the reader and the message-size
// cap — followed by a binary body:
//
//	request:  0x01 | uvarint id | callID | tp | object | method |
//	          uvarint argc | argc × arg
//	response: 0x02 | uvarint id | flags | [error] | [result]
//
// where every variable field is length-delimited (uvarint length +
// raw bytes) and args/result payloads stay JSON, handed to the
// dispatch layer as json.RawMessage slices aliasing the pooled frame
// buffer — decoding a request copies only the four short header
// strings, never the payload.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"ice/internal/telemetry"
)

const (
	frameRequest  byte = 0x01
	frameResponse byte = 0x02
)

const (
	respHasResult byte = 1 << 0
	respHasError  byte = 1 << 1
)

func appendLenBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendLenString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// frameReader is a bounds-checked cursor over one frame body. All
// reads after the first failure return zero values; the caller checks
// err once at the end.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (d *frameReader) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated frame at byte %d", d.off)
	}
}

func (d *frameReader) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *frameReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// bytes returns the next length-delimited field aliasing the frame
// buffer — the zero-copy payload handoff.
func (d *frameReader) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

func (d *frameReader) string() string { return string(d.bytes()) }

// appendRequestV2 encodes req after b (which already holds the length
// placeholder).
func appendRequestV2(b []byte, req *request) []byte {
	b = append(b, frameRequest)
	b = binary.AppendUvarint(b, req.ID)
	b = appendLenString(b, req.CallID)
	b = appendLenString(b, req.TP)
	b = appendLenString(b, req.Object)
	b = appendLenString(b, req.Method)
	b = binary.AppendUvarint(b, uint64(len(req.Args)))
	for _, a := range req.Args {
		b = appendLenBytes(b, a)
	}
	return b
}

// decodeRequestV2 decodes a v2 request body. req.Args alias body —
// the caller owns body until the request is fully dispatched.
func decodeRequestV2(body []byte, req *request) error {
	d := frameReader{b: body}
	if t := d.byte(); d.err == nil && t != frameRequest {
		return fmt.Errorf("pyro: decode v2 request: frame type 0x%02x", t)
	}
	req.ID = d.uvarint()
	req.CallID = d.string()
	req.TP = d.string()
	req.Object = d.string()
	req.Method = d.string()
	argc := d.uvarint()
	if d.err == nil && argc > 0 {
		// Each arg needs at least its 1-byte length prefix.
		if argc > uint64(len(body)-d.off) {
			return fmt.Errorf("pyro: decode v2 request: implausible arg count %d", argc)
		}
		req.Args = make([]json.RawMessage, 0, argc)
		for k := uint64(0); k < argc; k++ {
			req.Args = append(req.Args, json.RawMessage(d.bytes()))
		}
	}
	if d.err != nil {
		return fmt.Errorf("pyro: decode v2 request: %w", d.err)
	}
	if d.off != len(body) {
		return fmt.Errorf("pyro: decode v2 request: %d trailing bytes", len(body)-d.off)
	}
	return nil
}

// appendResponseV2 encodes resp after b. The flags byte preserves the
// nil-vs-empty Result distinction CallInto relies on.
func appendResponseV2(b []byte, resp *response) []byte {
	b = append(b, frameResponse)
	b = binary.AppendUvarint(b, resp.ID)
	var flags byte
	if resp.Result != nil {
		flags |= respHasResult
	}
	if resp.Error != "" {
		flags |= respHasError
	}
	b = append(b, flags)
	if flags&respHasError != 0 {
		b = appendLenString(b, resp.Error)
	}
	if flags&respHasResult != 0 {
		b = appendLenBytes(b, resp.Result)
	}
	return b
}

// decodeResponseV2 decodes a v2 response body. resp.Result aliases
// body; the proxy reads each response into a fresh exact-size buffer
// so callers may retain it.
func decodeResponseV2(body []byte, resp *response) error {
	d := frameReader{b: body}
	if t := d.byte(); d.err == nil && t != frameResponse {
		return fmt.Errorf("pyro: decode v2 response: frame type 0x%02x", t)
	}
	resp.ID = d.uvarint()
	flags := d.byte()
	if d.err == nil && flags&^(respHasResult|respHasError) != 0 {
		return fmt.Errorf("pyro: decode v2 response: unknown flags 0x%02x", flags)
	}
	if flags&respHasError != 0 {
		resp.Error = d.string()
	}
	if flags&respHasResult != 0 {
		resp.Result = json.RawMessage(d.bytes())
	}
	if d.err != nil {
		return fmt.Errorf("pyro: decode v2 response: %w", d.err)
	}
	if d.off != len(body) {
		return fmt.Errorf("pyro: decode v2 response: %d trailing bytes", len(body)-d.off)
	}
	return nil
}

// wireMetrics resolves the pyro.wire.* counters once so the hot path
// pays two atomic adds per frame, not a map lookup. All methods are
// nil-receiver safe.
type wireMetrics struct {
	bytesIn, bytesOut   *telemetry.Counter
	framesIn, framesOut *telemetry.Counter
	encodeNs, decodeNs  *telemetry.Counter
}

func newWireMetrics(c *telemetry.Collector) *wireMetrics {
	if c == nil {
		return nil
	}
	return &wireMetrics{
		bytesIn:   c.Counter("pyro.wire.bytes_in"),
		bytesOut:  c.Counter("pyro.wire.bytes_out"),
		framesIn:  c.Counter("pyro.wire.frames_in"),
		framesOut: c.Counter("pyro.wire.frames_out"),
		encodeNs:  c.Counter("pyro.wire.encode_ns"),
		decodeNs:  c.Counter("pyro.wire.decode_ns"),
	}
}

func (m *wireMetrics) sent(bytes int, encodeNs int64) {
	if m == nil {
		return
	}
	m.framesOut.Inc()
	m.bytesOut.Add(int64(bytes))
	m.encodeNs.Add(encodeNs)
}

func (m *wireMetrics) received(bytes int, decodeNs int64) {
	if m == nil {
		return
	}
	m.framesIn.Inc()
	m.bytesIn.Add(int64(bytes))
	m.decodeNs.Add(decodeNs)
}

// wireConn is one handshaken connection: both the proxy and the
// daemon route every frame through it, so the framing (and the wire
// telemetry) lives in exactly one place.
type wireConn struct {
	conn    net.Conn
	metrics *wireMetrics
}

// writeRequest frames req as one Write. The caller serialises
// concurrent writers.
func (c *wireConn) writeRequest(req *request) error {
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	bp := getFrame()
	b := appendRequestV2(append((*bp)[:0], 0, 0, 0, 0), req)
	return c.finishWrite(bp, b, start)
}

// writeResponse frames resp as one Write.
func (c *wireConn) writeResponse(resp *response) error {
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	bp := getFrame()
	b := appendResponseV2(append((*bp)[:0], 0, 0, 0, 0), resp)
	return c.finishWrite(bp, b, start)
}

func (c *wireConn) finishWrite(bp *[]byte, b []byte, start time.Time) error {
	if len(b)-4 > maxMessageBytes {
		putFrame(bp)
		return fmt.Errorf("pyro: message of %d bytes exceeds %d limit", len(b)-4, maxMessageBytes)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	var encNs int64
	if c.metrics != nil {
		encNs = time.Since(start).Nanoseconds()
	}
	n, err := c.conn.Write(b)
	*bp = b
	putFrame(bp)
	c.metrics.sent(n, encNs)
	return err
}

// readRequest reads and decodes one request. The returned buffer owns
// req.Args' backing memory: the caller must putFrame it after the
// request is fully dispatched.
func (c *wireConn) readRequest(req *request) (*[]byte, error) {
	bp := getFrame()
	body, err := readFrame(c.conn, *bp)
	if err != nil {
		putFrame(bp)
		return nil, err
	}
	// readFrame may have grown the buffer; keep the grown one pooled.
	*bp = body[:0:cap(body)]
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	if err := decodeRequestV2(body, req); err != nil {
		putFrame(bp)
		return nil, err
	}
	c.received(len(body), start)
	return bp, nil
}

// readResponse reads and decodes one response into a fresh exact-size
// buffer (the Result may be retained by the caller).
func (c *wireConn) readResponse(resp *response) error {
	body, err := readFrame(c.conn, nil)
	if err != nil {
		return err
	}
	var start time.Time
	if c.metrics != nil {
		start = time.Now()
	}
	if err := decodeResponseV2(body, resp); err != nil {
		return err
	}
	c.received(len(body), start)
	return nil
}

func (c *wireConn) received(bodyLen int, start time.Time) {
	if c.metrics == nil {
		return
	}
	c.metrics.received(4+bodyLen, time.Since(start).Nanoseconds())
}
