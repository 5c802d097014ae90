package pyro

import (
	"encoding/json"
	"net"
	"testing"
)

// benchServer exposes Echo-style methods for wire benchmarks.
type benchServer struct{}

func (benchServer) Ping()                {}
func (benchServer) Echo(s string) string { return s }
func (benchServer) Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func benchProxy(b *testing.B) *Proxy {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	d := NewDaemon(l)
	uri, err := d.Register("Bench", benchServer{})
	if err != nil {
		b.Fatal(err)
	}
	go d.RequestLoop()
	b.Cleanup(func() { d.Close() })
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

// BenchmarkCallVoid measures the minimum RPC round trip over loopback
// TCP (no netsim shaping).
func BenchmarkCallVoid(b *testing.B) {
	p := benchProxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Call("Ping"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallEcho1K measures a 1 KiB string argument + result.
func BenchmarkCallEcho1K(b *testing.B) {
	payload := string(make([]byte, 1024))
	p := benchProxy(b)
	b.SetBytes(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out string
		if err := p.CallInto(&out, "Echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallSliceArg measures numeric-slice serialisation, the
// shape of measurement-array arguments.
func BenchmarkCallSliceArg(b *testing.B) {
	xs := make([]float64, 512)
	p := benchProxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out float64
		if err := p.CallInto(&out, "Sum", xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeFrame isolates the codec cost (no network): one
// representative request encoded.
func BenchmarkEncodeFrame(b *testing.B) {
	req := request{ID: 1234, CallID: "bench-77", Object: "ACL_SP200", Method: "StartChannelSP200",
		TP:   "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		Args: []json.RawMessage{json.RawMessage(`1`), json.RawMessage(`{"scan_rate":0.05}`)}}
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = appendRequestV2(buf[:0], &req)
	}
}

// TestAllocsPerRPCRegression is the allocation regression gate of the
// binary framing: a round trip must stay under an absolute budget so
// codec regressions fail CI rather than only showing up in profiles.
func TestAllocsPerRPCRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short races")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	uri, err := d.Register("Bench", benchServer{})
	if err != nil {
		t.Fatal(err)
	}
	go d.RequestLoop()
	defer d.Close()
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	payload := string(make([]byte, 512))
	// Warm the frame pool and the connection.
	for i := 0; i < 16; i++ {
		var out string
		if err := p.CallInto(&out, "Echo", payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		var out string
		if err := p.CallInto(&out, "Echo", payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/RPC: %.1f", allocs)
	// Absolute budget: client-side allocations for one 512-byte echo.
	// Measured ~30 on the seed; the gate leaves headroom for runtime
	// variation while still catching a codec that starts copying args.
	const budget = 60
	if allocs > budget {
		t.Errorf("framing allocates %.1f per RPC, budget %d", allocs, budget)
	}
}
