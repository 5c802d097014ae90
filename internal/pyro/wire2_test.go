package pyro

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"ice/internal/telemetry"
)

// TestV2FrameRoundTrip checks the binary codec bit-for-bit on both
// frame shapes, including the nil-vs-empty Result distinction.
func TestV2FrameRoundTrip(t *testing.T) {
	reqs := []request{
		{ID: 1, Object: "Calc", Method: "Ping"},
		{ID: 1<<63 + 9, CallID: "abc-42", Object: "ACL_SP200", Method: "StartChannelSP200",
			TP:   "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
			Args: []json.RawMessage{json.RawMessage(`{"x":1}`), json.RawMessage(`[1,2,3]`)}},
		{ID: 0, Object: "", Method: "", Args: []json.RawMessage{json.RawMessage(`null`)}},
	}
	for _, want := range reqs {
		b := appendRequestV2(nil, &want)
		var got request
		if err := decodeRequestV2(b, &got); err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request round trip: got %+v want %+v", got, want)
		}
	}

	resps := []response{
		{ID: 7},
		{ID: 8, Result: json.RawMessage(`"ok"`)},
		{ID: 9, Error: "pyro: it broke"},
		{ID: 10, Result: json.RawMessage(`null`), Error: "partial"},
		{ID: 11, Result: json.RawMessage{}}, // empty but present
	}
	for _, want := range resps {
		b := appendResponseV2(nil, &want)
		var got response
		if err := decodeResponseV2(b, &got); err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.ID != want.ID || got.Error != want.Error ||
			(got.Result == nil) != (want.Result == nil) ||
			!bytes.Equal(got.Result, want.Result) {
			t.Errorf("response round trip: got %+v want %+v", got, want)
		}
	}
}

// TestV2DecodeRejectsCorruption feeds systematically damaged frames
// into both decoders: every error must surface without panicking.
func TestV2DecodeRejectsCorruption(t *testing.T) {
	req := request{ID: 3, CallID: "c", Object: "O", Method: "M",
		Args: []json.RawMessage{json.RawMessage(`1`)}}
	good := appendRequestV2(nil, &req)
	// Truncations at every length.
	for i := 0; i < len(good); i++ {
		var r request
		if err := decodeRequestV2(good[:i], &r); err == nil {
			t.Errorf("truncated request of %d bytes accepted", i)
		}
	}
	// Trailing junk.
	var r request
	if err := decodeRequestV2(append(append([]byte{}, good...), 0xFF), &r); err == nil {
		t.Error("request with trailing junk accepted")
	}
	// Wrong frame type.
	bad := append([]byte{}, good...)
	bad[0] = frameResponse
	if err := decodeRequestV2(bad, &r); err == nil {
		t.Error("response frame accepted as request")
	}
	// Implausible arg count: claims 2^40 args.
	huge := []byte{frameRequest, 1, 0, 0, 1, 'O', 1, 'M'}
	huge = binary.AppendUvarint(huge, 1<<40)
	if err := decodeRequestV2(huge, &r); err == nil {
		t.Error("implausible arg count accepted")
	}

	resp := response{ID: 4, Result: json.RawMessage(`{"a":1}`), Error: "e"}
	goodR := appendResponseV2(nil, &resp)
	for i := 0; i < len(goodR); i++ {
		var rr response
		if err := decodeResponseV2(goodR[:i], &rr); err == nil {
			t.Errorf("truncated response of %d bytes accepted", i)
		}
	}
	var rr response
	badR := append([]byte{}, goodR...)
	badR[2] |= 0x80 // unknown flag
	if err := decodeResponseV2(badR, &rr); err == nil {
		t.Error("unknown response flags accepted")
	}
}

// startCalcDaemon is startDaemon with a calc registered as "Calc".
func startCalcDaemon(t *testing.T) (*Daemon, *calc, URI, func()) {
	t.Helper()
	d, stop := startDaemon(t)
	c := &calc{}
	uri, err := d.Register("Calc", c)
	if err != nil {
		t.Fatal(err)
	}
	return d, c, uri, stop
}

// TestHelloOtherVersionRefused sends the hello a pre-binary peer
// speaks (Version 1): the handshake must refuse it by name and the
// daemon must hang up without answering, instead of replying in frames
// that peer cannot read. The daemon keeps serving fresh dials.
func TestHelloOtherVersionRefused(t *testing.T) {
	var legacy bytes.Buffer
	if err := writeMessage(&legacy, hello{Magic: Scheme, Version: 1}); err != nil {
		t.Fatal(err)
	}
	err := expectHello(bytes.NewReader(legacy.Bytes()), "")
	if err == nil || err.Error() != "pyro: protocol version 1, want 2" {
		t.Fatalf("handshake error = %v, want \"pyro: protocol version 1, want 2\"", err)
	}

	_, c, uri, stop := startCalcDaemon(t)
	defer stop()
	conn, err := net.Dial("tcp", uri.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(legacy.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
		t.Fatalf("daemon answered a version-1 hello with %q (%v), want the connection closed", got, err)
	}

	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sum int
	if err := p.CallInto(&sum, "Add", 19, 23); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Errorf("Add = %d, want 42", sum)
	}
	var echo string
	if err := p.CallInto(&echo, "Echo", "streaming"); err != nil {
		t.Fatal(err)
	}
	if echo != "streaming" || c.Calls() != 2 {
		t.Errorf("echo %q, calls %d", echo, c.Calls())
	}
	if raw, err := p.Call("Ping"); err != nil || raw != nil {
		t.Errorf("Ping = (%v, %v), want (nil, nil)", raw, err)
	}
	if _, err := p.Call("Fail"); err == nil {
		t.Error("Fail did not surface the remote error")
	}
}

// TestCorruptV2FramePoisonsOnlyItsConnection writes garbage after a
// v2 handshake: the daemon must drop that connection without crashing,
// and keep serving fresh connections.
func TestCorruptV2FramePoisonsOnlyItsConnection(t *testing.T) {
	_, c, uri, stop := startCalcDaemon(t)
	defer stop()

	// A healthy long-lived proxy on its own connection.
	healthy, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	for name, corrupt := range map[string][]byte{
		"garbage body":    append([]byte{0, 0, 0, 8}, 0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF),
		"oversize prefix": {0xFF, 0xFF, 0xFF, 0xFF},
		"bad frame type":  {0, 0, 0, 2, 0x7F, 0x01},
		"truncated args":  append([]byte{0, 0, 0, 6}, frameRequest, 1, 1, 'x', 0, 0),
	} {
		conn, err := net.Dial("tcp", uri.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := sendHello(conn, ""); err != nil {
			t.Fatal(err)
		}
		if err := expectHello(conn, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(corrupt); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// The daemon must hang up on us…
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(conn); err != nil {
			t.Errorf("%s: connection not cleanly closed: %v", name, err)
		}
		conn.Close()
	}

	// …while the healthy connection and new dials keep working.
	var out string
	if err := healthy.CallInto(&out, "Echo", "still here"); err != nil {
		t.Fatalf("healthy connection died with the poisoned one: %v", err)
	}
	p2, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatalf("daemon stopped accepting after corrupt frames: %v", err)
	}
	defer p2.Close()
	if _, err := p2.Call("Ping"); err != nil {
		t.Fatal(err)
	}
	if c.Calls() != 2 {
		t.Errorf("daemon dispatched %d calls, want 2", c.Calls())
	}
}

// TestWireTelemetryCounters pins the pyro.wire.* series on both ends
// to the exact bytes of ten Echo("telemetry probe") calls. Each
// request frame is 37 bytes: the 4-byte length prefix, the type byte,
// a 1-byte uvarint ID, two empty strings (call ID, traceparent) at 1
// byte each, "Calc" and "Echo" at 5 bytes each, a 1-byte arg count
// and the 17-byte JSON argument behind its 1-byte length. Each
// response frame is 25 bytes: prefix, type, ID, flags and the 18-byte
// length-prefixed result. The handshake is not counted.
func TestWireTelemetryCounters(t *testing.T) {
	const calls, reqFrame, respFrame = 10, 37, 25
	d, _, uri, stop := startCalcDaemon(t)
	defer stop()
	dm := telemetry.NewCollector()
	d.SetMetrics(dm)
	cm := telemetry.NewCollector()
	p, err := Dial(uri, nil, DialConfig{Metrics: cm})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < calls; i++ {
		var out string
		if err := p.CallInto(&out, "Echo", "telemetry probe"); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][2]int64{ // name → {client, daemon}
		"pyro.wire.frames_out": {calls, calls},
		"pyro.wire.frames_in":  {calls, calls},
		"pyro.wire.bytes_out":  {calls * reqFrame, calls * respFrame},
		"pyro.wire.bytes_in":   {calls * respFrame, calls * reqFrame},
	}
	// The daemon counts a response after its Write returns, which can
	// be just after the client has already read it: give the last one
	// a moment to land.
	deadline := time.Now().Add(2 * time.Second)
	for dm.CounterValue("pyro.wire.bytes_out") < calls*respFrame && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for name, w := range want {
		if got := cm.CounterValue(name); got != w[0] {
			t.Errorf("client %s = %d, want %d", name, got, w[0])
		}
		if got := dm.CounterValue(name); got != w[1] {
			t.Errorf("daemon %s = %d, want %d", name, got, w[1])
		}
	}
}
