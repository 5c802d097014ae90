package pyro

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadMessage ensures arbitrary framed bytes never panic the
// handshake decoder or allocate beyond the message cap.
func FuzzReadMessage(f *testing.F) {
	var good bytes.Buffer
	writeMessage(&good, hello{Magic: Scheme, Version: protocolVersion, Token: "t"})
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		expectHello(bytes.NewReader(input), "t")
	})
}

// FuzzDecodeBinaryFrame ensures the v2 binary decoders are total:
// arbitrary bodies must error or round trip, never panic or read out
// of bounds, on both frame shapes.
func FuzzDecodeBinaryFrame(f *testing.F) {
	f.Add(appendRequestV2(nil, &request{ID: 7, CallID: "c-1", Object: "Calc", Method: "Add",
		Args: []json.RawMessage{json.RawMessage(`1`), json.RawMessage(`2`)}}))
	f.Add(appendResponseV2(nil, &response{ID: 7, Result: json.RawMessage(`42`)}))
	f.Add(appendResponseV2(nil, &response{ID: 8, Error: "boom"}))
	f.Add([]byte{frameRequest})
	f.Add([]byte{frameResponse, 0x01, 0x03})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req request
		if err := decodeRequestV2(body, &req); err == nil {
			// Accepted frames re-encode to an equivalent frame.
			again := appendRequestV2(nil, &req)
			var req2 request
			if err := decodeRequestV2(again, &req2); err != nil {
				t.Fatalf("re-decode of accepted request failed: %v", err)
			}
		}
		var resp response
		if err := decodeResponseV2(body, &resp); err == nil {
			again := appendResponseV2(nil, &resp)
			var resp2 response
			if err := decodeResponseV2(again, &resp2); err != nil {
				t.Fatalf("re-decode of accepted response failed: %v", err)
			}
		}
	})
}

// FuzzParseURI ensures URI parsing is total.
func FuzzParseURI(f *testing.F) {
	f.Add("PYRO:ACL_Server@10.2.11.161:9690")
	f.Add("PYRO:@:")
	f.Add("")
	f.Add("PYRO:a@[::1]:80")
	f.Fuzz(func(t *testing.T, s string) {
		u, err := ParseURI(s)
		if err != nil {
			return
		}
		// Valid URIs round trip.
		again, err := ParseURI(u.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", u.String(), err)
		}
		if again != u {
			t.Fatalf("round trip changed %v → %v", u, again)
		}
	})
}
