package pyro

import (
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// maxMessageBytes bounds a single wire message (16 MiB) so a corrupt
// length prefix cannot exhaust memory.
const maxMessageBytes = 16 << 20

// protocolVersion is the handshake version, which names the framing:
// 2 is the compact binary framing of wire2.go, the only one spoken. A
// peer that says anything else is refused at the handshake instead of
// being answered in frames it cannot read.
const protocolVersion = 2

// request is a client→daemon method invocation.
type request struct {
	// ID correlates the response; unique per connection.
	ID uint64
	// CallID, when non-empty, identifies the logical call across
	// connections and retries: the daemon executes each CallID at most
	// once and replays the first result to duplicates (exactly-once
	// semantics for non-idempotent instrument commands whose reply was
	// lost in transit). Empty CallIDs are dispatched unconditionally.
	CallID string
	// Object is the registered object name.
	Object string
	// Method is the exported method to invoke.
	Method string
	// Args are the positional arguments, JSON-encoded.
	Args []json.RawMessage
	// TP is the W3C-style traceparent of the calling span, so the
	// daemon parents its server-side span under the client's and one
	// trace ID follows a job across the simulated WAN. Empty when the
	// caller is untraced.
	TP string
}

// response is a daemon→client result.
type response struct {
	ID uint64
	// Result is the JSON-encoded return value (absent on error or for
	// void methods).
	Result json.RawMessage
	// Error carries the remote error message, empty on success.
	Error string
}

// hello is the handshake each side exchanges on connect. Token
// carries the optional shared-secret credential (the paper's future
// work calls for improving the ecosystem's security posture; lab
// deployments gate the control channel on per-user credentials).
type hello struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Token   string `json:"token,omitempty"`
}

// framePool recycles wire buffers across calls so the steady-state
// encode/decode path allocates nothing per frame.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(bp *[]byte) {
	// Don't hoard buffers grown by one giant payload.
	if cap(*bp) > 1<<20 {
		return
	}
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// writeMessage frames v as 4-byte big-endian length + JSON, issued as
// a single Write so one frame costs one transmission on netsim's
// link-busy model (two Writes would serialise as two segments).
func writeMessage(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("pyro: encode: %w", err)
	}
	if len(body) > maxMessageBytes {
		return fmt.Errorf("pyro: message of %d bytes exceeds %d limit", len(body), maxMessageBytes)
	}
	bp := getFrame()
	b := append((*bp)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[:4], uint32(len(body)))
	b = append(b, body...)
	_, err = w.Write(b)
	*bp = b
	putFrame(bp)
	return err
}

// readFrame reads one length-prefixed frame into buf (grown as
// needed) and returns the body slice.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMessageBytes {
		return nil, fmt.Errorf("pyro: incoming message of %d bytes exceeds %d limit", n, maxMessageBytes)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readMessage reads one framed JSON message into v.
func readMessage(r io.Reader, v any) error {
	body, err := readFrame(r, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("pyro: decode: %w", err)
	}
	return nil
}

// sendHello sends this side's handshake, presenting token (empty for
// none).
func sendHello(w io.Writer, token string) error {
	return writeMessage(w, hello{Magic: Scheme, Version: protocolVersion, Token: token})
}

// ErrUnauthorized is wrapped when a handshake presents the wrong
// credential.
var ErrUnauthorized = errors.New("pyro: unauthorized")

// expectHello validates the peer's handshake: the magic, the protocol
// version and, when wantToken is set, the credential.
func expectHello(r io.Reader, wantToken string) error {
	var h hello
	if err := readMessage(r, &h); err != nil {
		return fmt.Errorf("pyro: handshake: %w", err)
	}
	if h.Magic != Scheme {
		return fmt.Errorf("pyro: handshake magic %q", h.Magic)
	}
	if h.Version != protocolVersion {
		return fmt.Errorf("pyro: protocol version %d, want %d", h.Version, protocolVersion)
	}
	if wantToken != "" && subtle.ConstantTimeCompare([]byte(h.Token), []byte(wantToken)) != 1 {
		return fmt.Errorf("%w: bad or missing token", ErrUnauthorized)
	}
	return nil
}
