// Package pyro implements the remote-object RPC machinery the paper
// builds its control channel on: named server objects exposed by a
// daemon on the instrument control agent, and client proxies that
// invoke their methods across the ecosystem network by URI, in the
// style of Python Remote Objects (Pyro):
//
//	daemon := pyro.NewDaemon(listener)
//	uri, _ := daemon.Register("ACL_Server", &Workstation{...})
//	go daemon.RequestLoop()
//
//	proxy, _ := pyro.Dial(uri, nil, pyro.DialConfig{})
//	var status string
//	proxy.CallInto(&status, "Status")
//
// The wire protocol is a JSON hello followed by length-prefixed binary
// frames (wire2.go) over any net.Conn, so the same code runs over real
// TCP (cmd/controlagent) and the simulated cross-facility network
// (internal/netsim). A name server mirroring Pyro's NS is provided for
// lookup by logical name.
package pyro

import (
	"fmt"
	"net"
	"strconv"
	"strings"
)

// Scheme is the URI scheme prefix.
const Scheme = "PYRO"

// URI identifies a remote object: PYRO:ObjectName@host:port.
type URI struct {
	// Object is the registered object name.
	Object string
	// Host and Port locate the daemon.
	Host string
	Port int
}

// ParseURI parses "PYRO:Object@host:port".
func ParseURI(s string) (URI, error) {
	rest, ok := strings.CutPrefix(s, Scheme+":")
	if !ok {
		return URI{}, fmt.Errorf("pyro: URI %q lacks %s: prefix", s, Scheme)
	}
	obj, addr, ok := strings.Cut(rest, "@")
	if !ok || obj == "" {
		return URI{}, fmt.Errorf("pyro: URI %q lacks object@address", s)
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return URI{}, fmt.Errorf("pyro: URI %q address: %v", s, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 || port > 65535 {
		return URI{}, fmt.Errorf("pyro: URI %q port %q invalid", s, portStr)
	}
	return URI{Object: obj, Host: host, Port: port}, nil
}

// String renders the canonical URI form.
func (u URI) String() string {
	return fmt.Sprintf("%s:%s@%s", Scheme, u.Object, u.Addr())
}

// Addr returns the daemon's host:port.
func (u URI) Addr() string {
	return net.JoinHostPort(u.Host, strconv.Itoa(u.Port))
}

// WithObject returns the URI pointing at a different object on the
// same daemon.
func (u URI) WithObject(name string) URI {
	u.Object = name
	return u
}
