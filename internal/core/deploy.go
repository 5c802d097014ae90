package core

import (
	"fmt"
	"net"

	"ice/internal/datachan"
	"ice/internal/netsim"
	"ice/internal/pyro"
	"ice/internal/robot"
	"ice/internal/synthesis"
)

// Deployment is a complete running ICE over the simulated
// cross-facility network: the control agent at ACL serving both
// channels, plus the addressing a remote host needs to reach it.
type Deployment struct {
	// Network is the simulated fabric (Fig. 4 topology).
	Network *netsim.Network
	// Agent is the control agent at ACL.
	Agent *ControlAgent
	// DaemonURI addresses the control channel's Pyro daemon.
	DaemonURI pyro.URI
	// DataAddr is the data channel's host:port.
	DataAddr string
}

// Deploy builds the paper's topology, starts a control agent with
// measurement files in dir, and opens both channels on the paper's
// ports. timeScale paces instrument actions (0 = instant).
func Deploy(dir string, timeScale float64) (*Deployment, error) {
	network, err := netsim.PaperTopology()
	if err != nil {
		return nil, err
	}
	cfg := DefaultAgentConfig(dir)
	cfg.TimeScale = timeScale
	agent, err := NewControlAgent(cfg)
	if err != nil {
		return nil, err
	}

	controlL, err := network.Listen(netsim.HostControlAgent, netsim.PaperPorts.Control)
	if err != nil {
		agent.Close()
		return nil, err
	}
	jkemURI, _, err := agent.ServeControl(controlL)
	if err != nil {
		agent.Close()
		return nil, err
	}
	dataL, err := network.Listen(netsim.HostControlAgent, netsim.PaperPorts.Data)
	if err != nil {
		agent.Close()
		return nil, err
	}
	if err := agent.ServeData(dataL); err != nil {
		agent.Close()
		return nil, err
	}

	// The netsim listener address is host:port, which is exactly what
	// remote dials need.
	daemonURI := pyro.URI{Object: jkemURI.Object, Host: netsim.HostControlAgent, Port: netsim.PaperPorts.Control}
	return &Deployment{
		Network:   network,
		Agent:     agent,
		DaemonURI: daemonURI,
		DataAddr:  fmt.Sprintf("%s:%d", netsim.HostControlAgent, netsim.PaperPorts.Data),
	}, nil
}

// ConnectFrom opens a remote session and data mount from the named
// host (normally netsim.HostDGX).
func (d *Deployment) ConnectFrom(host string) (*RemoteSession, *datachan.Mount, error) {
	dialer := d.Network.Dialer(host)
	session, err := ConnectSession(d.DaemonURI, pyro.Dialer(dialer), SessionOptions{})
	if err != nil {
		return nil, nil, err
	}
	conn, err := d.Network.Dial(host, d.DataAddr)
	if err != nil {
		session.Close()
		return nil, nil, fmt.Errorf("core: mount data channel: %w", err)
	}
	return session, datachan.NewMount(conn), nil
}

// ConnectReliableFrom opens a chaos-tolerant session and data mount
// from the named host: instrument commands retry across transport
// faults with exactly-once semantics for the non-idempotent ones, and
// the data mount self-heals symmetrically — redialing with the same
// jittered backoff policy and resuming interrupted transfers from the
// last verified offset. opts.MaxRetries/Backoff/Metrics govern both
// channels.
func (d *Deployment) ConnectReliableFrom(host string, opts SessionOptions) (*RemoteSession, *datachan.ReliableMount, error) {
	dialer := pyro.Dialer(d.Network.Dialer(host))
	session := ConnectSessionReliable(d.DaemonURI, dialer, opts)
	mount := datachan.NewReliableMount(func() (net.Conn, error) {
		return d.Network.Dial(host, d.DataAddr)
	})
	if opts.MaxRetries > 0 {
		mount.MaxRetries = opts.MaxRetries
	}
	if opts.Backoff > 0 {
		mount.Backoff = opts.Backoff
	}
	if opts.Metrics != nil {
		mount.SetMetrics(opts.Metrics)
	}
	return session, mount, nil
}

// AttachLab adds the extended Fig. 1 stations (synthesis workstation
// and mobile robot) to a deployed ICE. timeScale paces synthesis and
// robot motion.
func (d *Deployment) AttachLab(seed int64, timeScale float64) error {
	station := synthesis.NewWorkstation(seed)
	station.TimeScale = timeScale
	rob := robot.New()
	rob.TimeScale = timeScale
	return d.Agent.AttachLabStations(station, rob)
}

// ConnectLabFrom opens an extended lab session (instruments +
// synthesis + robot) and data mount from the named host.
func (d *Deployment) ConnectLabFrom(host string) (*LabSession, *datachan.Mount, error) {
	dialer := pyro.Dialer(d.Network.Dialer(host))
	session, err := ConnectLabSession(d.DaemonURI, dialer, "")
	if err != nil {
		return nil, nil, err
	}
	conn, err := d.Network.Dial(host, d.DataAddr)
	if err != nil {
		session.Close()
		return nil, nil, fmt.Errorf("core: mount data channel: %w", err)
	}
	return session, datachan.NewMount(conn), nil
}

// Close tears the deployment down.
func (d *Deployment) Close() error { return d.Agent.Close() }
