package labreg

// Package labreg is the declarative lab registry: a versioned config
// describes a facility — network topology, instrument devices, pyro
// export names, instrument-gate groupings — and Build materializes it
// into a running simulated facility the scheduler connects to. What
// used to be compiled into cmd/icegated's -selflab path (the paper's
// Fig. 4 topology plus the fixed echem instrument set) is now one
// example config among many; bringing a new instrument class online
// is a config edit plus a RegisterKind call, not a gateway release.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// CurrentVersion is the config schema version this build understands.
const CurrentVersion = 1

// Validation failures wrap these sentinel errors, so callers (and the
// registry's own tests) can assert the exact failure class with
// errors.Is rather than string-matching.
var (
	// ErrConfigVersion marks a missing or unsupported version field.
	ErrConfigVersion = errors.New("labreg: unsupported config version")
	// ErrDuplicateDevice marks two devices sharing one name.
	ErrDuplicateDevice = errors.New("labreg: duplicate device name")
	// ErrPortConflict marks one host port claimed for two purposes.
	ErrPortConflict = errors.New("labreg: port conflict")
	// ErrUnknownKind marks a device kind with no registered factory.
	ErrUnknownKind = errors.New("labreg: unknown device kind")
	// ErrDanglingEndpoint marks a link to an undeclared hub or host.
	ErrDanglingEndpoint = errors.New("labreg: dangling link endpoint")
	// ErrGateDevice marks a gate naming an undeclared device.
	ErrGateDevice = errors.New("labreg: gate references unknown device")
	// ErrConfigInvalid covers the remaining shape errors (bad latency,
	// missing names, out-of-range ports).
	ErrConfigInvalid = errors.New("labreg: invalid config")
)

// Config is a declarative facility description, decodable from YAML
// or JSON. All fields are validated by Validate before Build will
// touch them.
type Config struct {
	// Version is the schema version (must be CurrentVersion).
	Version int `json:"version"`
	// Facility names the lab (scopes lease resources and exports).
	Facility string `json:"facility"`
	// Client is the host jobs connect from (the paper's dgx).
	Client string `json:"client"`
	// Topology is the simulated cross-facility network.
	Topology Topology `json:"topology"`
	// Devices are the instruments to materialize.
	Devices []Device `json:"devices"`
	// Gates group devices into named lease units (optional).
	Gates []Gate `json:"gates,omitempty"`
}

// Topology describes the netsim fabric.
type Topology struct {
	Hubs      []Hub         `json:"hubs"`
	Hosts     []Host        `json:"hosts"`
	Gateways  []GatewayLink `json:"gateways,omitempty"`
	Firewalls []Firewall    `json:"firewalls,omitempty"`
}

// Hub is one broadcast domain with link characteristics.
type Hub struct {
	Name string `json:"name"`
	// Latency is the one-way hub latency, e.g. "200us".
	Latency string `json:"latency"`
	// BandwidthGbps is the link rate in gigabits per second.
	BandwidthGbps float64 `json:"bandwidth_gbps"`
	// Jitter adds random per-packet delay up to this bound (optional,
	// e.g. "50us").
	Jitter string `json:"jitter,omitempty"`
	// Loss drops this fraction of packets on the hub (optional, fault
	// drills; 0..1).
	Loss float64 `json:"loss,omitempty"`
}

// Host is an endpoint attached to one hub.
type Host struct {
	Name string `json:"name"`
	Hub  string `json:"hub"`
}

// GatewayLink is a router joining two or more hubs.
type GatewayLink struct {
	Name string   `json:"name"`
	Hubs []string `json:"hubs"`
}

// Firewall is a per-host ingress policy.
type Firewall struct {
	Host        string `json:"host"`
	DefaultDeny bool   `json:"default_deny"`
	Allow       []int  `json:"allow,omitempty"`
}

// Device is one instrument: a kind resolved through the factory
// registry, placed on a host, served on that host's control daemon.
type Device struct {
	// Name is the device's unique registry name.
	Name string `json:"name"`
	// Kind selects the factory (sp200, jkem, synthesis, robot, scan, …).
	Kind string `json:"kind"`
	// Model is free-form hardware identification (documentation only).
	Model string `json:"model,omitempty"`
	// Host places the device.
	Host string `json:"host"`
	// Port is the control-channel port of the device's station; all
	// devices sharing host+port share one pyro daemon.
	Port int `json:"port"`
	// DataPort serves the station's measurement directory (0 = no data
	// channel for this station; at most one per station).
	DataPort int `json:"data_port,omitempty"`
	// Export overrides the pyro object name (default: the kind's).
	Export string `json:"export,omitempty"`
	// Params is kind-specific configuration, strict-decoded by the
	// factory.
	Params json.RawMessage `json:"params,omitempty"`
}

// Gate groups devices into one named lease unit: a job holding the
// gate leases every member device's resource.
type Gate struct {
	Name    string   `json:"name"`
	Devices []string `json:"devices"`
}

// DecodeConfig strict-decodes a YAML or JSON lab config: unknown
// fields, duplicate keys and malformed structure are errors, not
// warnings — a typo'd config must fail bring-up, never silently
// deploy half a lab. The decoded config is validated.
func DecodeConfig(src []byte) (*Config, error) {
	jsonSrc := src
	if !looksLikeJSON(src) {
		tree, err := parseYAML(src)
		if err != nil {
			return nil, err
		}
		jsonSrc, err = json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("labreg: encode parsed yaml: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonSrc))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("labreg: decode config: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("labreg: trailing content after config document")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// LoadConfig reads and decodes a config file (.yaml/.yml/.json).
func LoadConfig(path string) (*Config, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := DecodeConfig(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return cfg, nil
}

// looksLikeJSON sniffs the first non-space byte.
func looksLikeJSON(src []byte) bool {
	for _, b := range src {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// Validate checks the config against the schema invariants Build
// relies on. Every failure wraps one of the sentinel errors above.
func (c *Config) Validate() error {
	if c.Version != CurrentVersion {
		return fmt.Errorf("%w: got %d, this build understands %d", ErrConfigVersion, c.Version, CurrentVersion)
	}
	if err := validName(c.Facility, "facility"); err != nil {
		return err
	}

	hubs := map[string]bool{}
	for _, h := range c.Topology.Hubs {
		if err := validName(h.Name, "hub"); err != nil {
			return err
		}
		if hubs[h.Name] {
			return fmt.Errorf("%w: hub %q declared twice", ErrConfigInvalid, h.Name)
		}
		hubs[h.Name] = true
		if _, err := parseLatency(h.Latency, "hub "+h.Name+" latency"); err != nil {
			return err
		}
		if h.Jitter != "" {
			if _, err := parseLatency(h.Jitter, "hub "+h.Name+" jitter"); err != nil {
				return err
			}
		}
		if h.BandwidthGbps <= 0 || math.IsNaN(h.BandwidthGbps) || math.IsInf(h.BandwidthGbps, 0) {
			return fmt.Errorf("%w: hub %q bandwidth_gbps %v must be positive and finite", ErrConfigInvalid, h.Name, h.BandwidthGbps)
		}
		if h.Loss < 0 || h.Loss > 1 || math.IsNaN(h.Loss) {
			return fmt.Errorf("%w: hub %q loss %v outside [0,1]", ErrConfigInvalid, h.Name, h.Loss)
		}
	}
	if len(hubs) == 0 {
		return fmt.Errorf("%w: topology needs at least one hub", ErrConfigInvalid)
	}

	hosts := map[string]bool{}
	for _, h := range c.Topology.Hosts {
		if err := validName(h.Name, "host"); err != nil {
			return err
		}
		if hosts[h.Name] {
			return fmt.Errorf("%w: host %q declared twice", ErrConfigInvalid, h.Name)
		}
		hosts[h.Name] = true
		if !hubs[h.Hub] {
			return fmt.Errorf("%w: host %q attaches to undeclared hub %q", ErrDanglingEndpoint, h.Name, h.Hub)
		}
	}
	for _, g := range c.Topology.Gateways {
		if err := validName(g.Name, "gateway"); err != nil {
			return err
		}
		if hosts[g.Name] {
			return fmt.Errorf("%w: gateway %q collides with a host name", ErrConfigInvalid, g.Name)
		}
		hosts[g.Name] = true
		if len(g.Hubs) < 2 {
			return fmt.Errorf("%w: gateway %q must join at least two hubs", ErrConfigInvalid, g.Name)
		}
		for _, hub := range g.Hubs {
			if !hubs[hub] {
				return fmt.Errorf("%w: gateway %q joins undeclared hub %q", ErrDanglingEndpoint, g.Name, hub)
			}
		}
	}
	for _, fw := range c.Topology.Firewalls {
		if !hosts[fw.Host] {
			return fmt.Errorf("%w: firewall for undeclared host %q", ErrDanglingEndpoint, fw.Host)
		}
		for _, port := range fw.Allow {
			if err := validPort(port, "firewall "+fw.Host); err != nil {
				return err
			}
		}
	}
	if c.Client == "" {
		return fmt.Errorf("%w: client host required", ErrConfigInvalid)
	}
	if !hosts[c.Client] {
		return fmt.Errorf("%w: client %q is not a declared host", ErrDanglingEndpoint, c.Client)
	}

	if len(c.Devices) == 0 {
		return fmt.Errorf("%w: at least one device required", ErrConfigInvalid)
	}
	devices := map[string]bool{}
	// ports tracks every (host, port) claim: what station group claimed
	// it and for which channel. One port must serve one purpose.
	type portClaim struct{ channel, station string }
	ports := map[string]map[int]portClaim{}
	claim := func(host string, port int, channel, station string) error {
		if ports[host] == nil {
			ports[host] = map[int]portClaim{}
		}
		prev, taken := ports[host][port]
		if taken && (prev.channel != channel || prev.station != station) {
			return fmt.Errorf("%w: %s:%d claimed for %s by station %s and for %s by station %s",
				ErrPortConflict, host, port, prev.channel, prev.station, channel, station)
		}
		ports[host][port] = portClaim{channel, station}
		return nil
	}
	dataPorts := map[string]int{} // station key → declared data port
	for _, d := range c.Devices {
		if err := validName(d.Name, "device"); err != nil {
			return err
		}
		if devices[d.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateDevice, d.Name)
		}
		devices[d.Name] = true
		kind, ok := kindFor(d.Kind)
		if !ok {
			return fmt.Errorf("%w: device %q kind %q (registered: %s)", ErrUnknownKind, d.Name, d.Kind, strings.Join(Kinds(), ", "))
		}
		if kind.CheckParams != nil {
			if err := kind.CheckParams(d); err != nil {
				return err
			}
		} else if len(d.Params) != 0 {
			if err := noParams(d); err != nil {
				return err
			}
		}
		if !hosts[d.Host] {
			return fmt.Errorf("%w: device %q placed on undeclared host %q", ErrDanglingEndpoint, d.Name, d.Host)
		}
		if err := validPort(d.Port, "device "+d.Name); err != nil {
			return err
		}
		station := stationKey(d.Host, d.Port)
		if err := claim(d.Host, d.Port, "control", station); err != nil {
			return err
		}
		if d.DataPort != 0 {
			if err := validPort(d.DataPort, "device "+d.Name+" data_port"); err != nil {
				return err
			}
			if prev, ok := dataPorts[station]; ok && prev != d.DataPort {
				return fmt.Errorf("%w: station %s declares data ports %d and %d", ErrPortConflict, station, prev, d.DataPort)
			}
			dataPorts[station] = d.DataPort
			if err := claim(d.Host, d.DataPort, "data", station); err != nil {
				return err
			}
		}
	}

	gates := map[string]bool{}
	for _, g := range c.Gates {
		if err := validName(g.Name, "gate"); err != nil {
			return err
		}
		if gates[g.Name] {
			return fmt.Errorf("%w: gate %q declared twice", ErrConfigInvalid, g.Name)
		}
		gates[g.Name] = true
		if len(g.Devices) == 0 {
			return fmt.Errorf("%w: gate %q groups no devices", ErrConfigInvalid, g.Name)
		}
		for _, dev := range g.Devices {
			if !devices[dev] {
				return fmt.Errorf("%w: gate %q names %q", ErrGateDevice, g.Name, dev)
			}
		}
	}
	return nil
}

// stationKey identifies the daemon a device is served on.
func stationKey(host string, port int) string {
	return fmt.Sprintf("%s:%d", host, port)
}

func validName(name, what string) error {
	if name == "" {
		return fmt.Errorf("%w: %s name required", ErrConfigInvalid, what)
	}
	if len(name) > 64 {
		return fmt.Errorf("%w: %s name %q too long (max 64)", ErrConfigInvalid, what, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%w: %s name %q contains %q", ErrConfigInvalid, what, name, r)
		}
	}
	return nil
}

func validPort(port int, what string) error {
	if port < 1 || port > 65535 {
		return fmt.Errorf("%w: %s port %d outside [1,65535]", ErrConfigInvalid, what, port)
	}
	return nil
}

// parseLatency parses a duration field ("200us", "1.5ms"), rejecting
// negatives and absurd values.
func parseLatency(s, what string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("%w: %s required", ErrConfigInvalid, what)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q: %v", ErrConfigInvalid, what, s, err)
	}
	if d < 0 || d > time.Minute {
		return 0, fmt.Errorf("%w: %s %v outside [0, 1m]", ErrConfigInvalid, what, d)
	}
	return d, nil
}
