package pyro

import (
	"net"
	"testing"
	"time"
)

// startAuthDaemon returns a daemon requiring the given token.
func startAuthDaemon(t *testing.T, token string) (URI, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	d.AuthToken = token
	uri, err := d.Register("Calc", &calc{})
	if err != nil {
		t.Fatal(err)
	}
	go d.RequestLoop()
	return uri, func() { d.Close() }
}

func TestAuthTokenAccepted(t *testing.T) {
	uri, stop := startAuthDaemon(t, "lab-secret")
	defer stop()
	p, err := Dial(uri, nil, DialConfig{Token: "lab-secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sum int
	if err := p.CallInto(&sum, "Add", 2, 3); err != nil || sum != 5 {
		t.Errorf("authorised call = %d, %v", sum, err)
	}
}

func TestWrongTokenRejected(t *testing.T) {
	uri, stop := startAuthDaemon(t, "lab-secret")
	defer stop()
	// Wrong and missing tokens: the daemon drops the connection; the
	// first call (or the handshake response read) fails.
	for _, token := range []string{"wrong", ""} {
		p, err := Dial(uri, nil, DialConfig{Token: token})
		if err != nil {
			continue // rejected during handshake — fine
		}
		p.Timeout = 500 * time.Millisecond
		if _, err := p.Call("Add", 1, 1); err == nil {
			t.Errorf("call with token %q succeeded", token)
		}
		p.Close()
	}
}

func TestOpenDaemonIgnoresTokens(t *testing.T) {
	uri, stop := startAuthDaemon(t, "") // no auth required
	defer stop()
	p, err := Dial(uri, nil, DialConfig{Token: "anything"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sum int
	if err := p.CallInto(&sum, "Add", 1, 1); err != nil || sum != 2 {
		t.Errorf("open daemon call = %d, %v", sum, err)
	}
}
