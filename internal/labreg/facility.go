package labreg

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/microscope"
	"ice/internal/netsim"
	"ice/internal/pyro"
	"ice/internal/robot"
	"ice/internal/sched"
	"ice/internal/synthesis"
	"ice/internal/units"
)

// Facility is a running materialized lab: the simulated network and
// every station the config declared. It implements sched.Connector
// (and, when the config includes a scan device, sched.ScanConnector),
// so the scheduler drives a config-built lab exactly the way it
// drives the old hardcoded deployment.
type Facility struct {
	// Config is the validated source config.
	Config *Config
	// Network is the materialized netsim fabric.
	Network *netsim.Network

	opts BuildOptions

	mu       sync.Mutex
	stations map[string]*Station // by stationKey
	echem    *Station            // the station serving the sp200/jkem pair
	scan     *Station            // the station serving the first scan device
	scanName string              // that device's export name
	closed   bool
}

// buildStations groups devices into host:port stations, runs every
// device's factory, and materializes each station.
func (f *Facility) buildStations() error {
	builds := map[string]*StationBuild{}
	var order []string
	for _, dev := range f.Config.Devices {
		key := stationKey(dev.Host, dev.Port)
		sb := builds[key]
		if sb == nil {
			sb = &StationBuild{
				Host:     dev.Host,
				Port:     dev.Port,
				Dir:      filepath.Join(f.opts.Dir, fmt.Sprintf("%s-%d", dev.Host, dev.Port)),
				Opts:     f.opts,
				facility: f.Config.Facility,
			}
			builds[key] = sb
			order = append(order, key)
		}
		if dev.DataPort != 0 {
			sb.DataPort = dev.DataPort
		}
		sb.devices = append(sb.devices, dev)
		kind, _ := kindFor(dev.Kind) // Validate vetted registration
		if err := kind.Materialize(sb, dev); err != nil {
			return err
		}
	}

	f.stations = map[string]*Station{}
	for _, key := range order {
		st, err := f.materializeStation(builds[key])
		if err != nil {
			return err
		}
		f.stations[key] = st
		if st.Agent != nil {
			if f.echem != nil {
				return fmt.Errorf("%w: echem stations at both %s and %s (one sp200/jkem pair per facility)",
					ErrConfigInvalid, stationKey(f.echem.Host, f.echem.Port), key)
			}
			f.echem = st
		}
		if len(st.Scanners) > 0 && f.scan == nil {
			f.scan = st
			for _, dev := range builds[key].scanDecls {
				f.scanName = exportName(dev.dev)
				break
			}
		}
	}
	return nil
}

// exportName resolves a device's pyro object name.
func exportName(dev Device) string {
	if dev.Export != "" {
		return dev.Export
	}
	kind, _ := kindFor(dev.Kind)
	if kind.DefaultExport != "" {
		return kind.DefaultExport
	}
	return dev.Name
}

// materializeStation brings one station up: control daemon (a full
// ControlAgent when the echem pair is declared, a bare pyro daemon
// otherwise), scanners and custom objects registered on it, and the
// data-channel export when a data port is declared.
func (f *Facility) materializeStation(sb *StationBuild) (*Station, error) {
	if err := os.MkdirAll(sb.Dir, 0o755); err != nil {
		return nil, err
	}
	st := &Station{
		Host:        sb.Host,
		Port:        sb.Port,
		DataPort:    sb.DataPort,
		Dir:         sb.Dir,
		Scanners:    map[string]*microscope.Scanner{},
		scanExports: map[string]string{},
	}
	fail := func(err error) (*Station, error) {
		st.close()
		return nil, err
	}

	// The echem pair shares one cell inside a ControlAgent; declaring
	// half of it would materialize an agent whose other object lies
	// about hardware the config never granted.
	if (sb.sp200Dev == "") != (sb.jkemDev == "") {
		return nil, fmt.Errorf("%w: station %s declares %s without its partner (sp200 and jkem share one cell)",
			ErrConfigInvalid, sb.key(), firstNonEmpty(sb.sp200Dev, sb.jkemDev))
	}
	if sb.synthDev != "" || sb.robotDev != "" {
		if sb.sp200Dev == "" {
			return nil, fmt.Errorf("%w: station %s declares lab stations (%s) without the echem pair that hosts them",
				ErrConfigInvalid, sb.key(), firstNonEmpty(sb.synthDev, sb.robotDev))
		}
		if sb.synthDev == "" || sb.robotDev == "" {
			return nil, fmt.Errorf("%w: station %s needs both synthesis and robot (the campaign workflow drives them together)",
				ErrConfigInvalid, sb.key())
		}
	}

	if sb.sp200Dev != "" {
		area := sb.sp200.ElectrodeAreaCM2
		if area == 0 {
			area = 0.07
		}
		noiseSeed := sb.sp200.NoiseSeed
		if noiseSeed == 0 {
			noiseSeed = 1
		}
		agent, err := core.NewControlAgent(core.AgentConfig{
			MeasurementDir: sb.Dir,
			ElectrodeArea:  units.SquareCentimeters(area),
			NoiseSeed:      noiseSeed,
			TimeScale:      f.opts.TimeScale,
			AuthToken:      f.opts.AuthToken,
		})
		if err != nil {
			return fail(err)
		}
		st.Agent = agent
		st.closers = append(st.closers, agent.Close)
		controlL, err := f.Network.Listen(sb.Host, sb.Port)
		if err != nil {
			return fail(err)
		}
		if _, _, err := agent.ServeControl(controlL); err != nil {
			controlL.Close()
			return fail(err)
		}
		st.daemon = agent.Daemon()
		if sb.DataPort != 0 {
			dataL, err := f.Network.Listen(sb.Host, sb.DataPort)
			if err != nil {
				return fail(err)
			}
			if err := agent.ServeData(dataL); err != nil {
				dataL.Close()
				return fail(err)
			}
		}
		if sb.synthDev != "" {
			synthSeed := sb.synth.Seed
			if synthSeed == 0 {
				synthSeed = f.opts.Seed
			}
			ws := synthesis.NewWorkstation(synthSeed)
			ws.TimeScale = f.opts.TimeScale
			rob := robot.New()
			rob.TimeScale = f.opts.TimeScale
			if err := agent.AttachLabStations(ws, rob); err != nil {
				return fail(err)
			}
		}
	} else {
		// Standalone station: bare daemon plus its own name server.
		controlL, err := f.Network.Listen(sb.Host, sb.Port)
		if err != nil {
			return fail(err)
		}
		daemon := pyro.NewDaemon(controlL)
		daemon.AuthToken = f.opts.AuthToken
		st.daemon = daemon
		st.closers = append(st.closers, daemon.Close)
		if _, err := daemon.Register(pyro.NSObjectName, pyro.NewNameServer()); err != nil {
			return fail(err)
		}
		go daemon.RequestLoop()
		if sb.DataPort != 0 {
			dataL, err := f.Network.Listen(sb.Host, sb.DataPort)
			if err != nil {
				return fail(err)
			}
			export := datachan.NewExport(sb.Dir, dataL)
			st.export = export
			st.closers = append(st.closers, export.Close)
			go export.Serve()
		}
	}

	for _, decl := range sb.scanDecls {
		seed := decl.params.SpecimenSeed
		if seed == 0 {
			seed = f.opts.Seed
		}
		scanner := microscope.NewScanner(decl.dev.Name, microscope.NewSpecimen(seed), sb.Dir)
		scanner.SetTimeScale(f.opts.TimeScale)
		export := exportName(decl.dev)
		if _, err := st.daemon.Register(export, microscope.NewServer(scanner)); err != nil {
			return fail(fmt.Errorf("labreg: register scan device %s: %w", decl.dev.Name, err))
		}
		st.Scanners[decl.dev.Name] = scanner
		st.scanExports[decl.dev.Name] = export
	}
	for _, extra := range sb.extras {
		if _, err := st.daemon.Register(extra.export, extra.obj); err != nil {
			return fail(fmt.Errorf("labreg: register %s: %w", extra.export, err))
		}
		if extra.close != nil {
			st.closers = append(st.closers, extra.close)
		}
	}
	return st, nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// Stations lists the running stations, sorted by host:port.
func (f *Facility) Stations() []*Station {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.stations))
	for key := range f.stations {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]*Station, 0, len(keys))
	for _, key := range keys {
		out = append(out, f.stations[key])
	}
	return out
}

// Scanner returns a scan device's simulator by device name (fault
// drills wedge it mid-raster), or nil.
func (f *Facility) Scanner(device string) *microscope.Scanner {
	for _, st := range f.Stations() {
		if sc, ok := st.Scanners[device]; ok {
			return sc
		}
	}
	return nil
}

// EchemStation returns the station serving the sp200/jkem pair (nil
// when the config declares none).
func (f *Facility) EchemStation() *Station {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.echem
}

// EnableAudit turns on the control-call journal on every station (the
// agent's exactly-once audit trail, now per station).
func (f *Facility) EnableAudit() error {
	for _, st := range f.Stations() {
		if st.Agent != nil {
			if err := st.Agent.EnableAudit(); err != nil {
				return err
			}
			continue
		}
		if err := core.EnableDaemonAudit(st.daemon, st.Dir); err != nil {
			return err
		}
	}
	return nil
}

// dialer returns the pyro dialer rooted at the client host.
func (f *Facility) dialer() pyro.Dialer {
	return pyro.Dialer(f.Network.Dialer(f.Config.Client))
}

func (f *Facility) stationURI(st *Station) pyro.URI {
	return pyro.URI{Object: core.JKemObject, Host: st.Host, Port: st.Port}
}

// mountStation opens the station's data channel from the client host.
func (f *Facility) mountStation(st *Station) (datachan.Share, error) {
	if st.DataPort == 0 {
		return nil, fmt.Errorf("labreg: station %s serves no data channel", stationKey(st.Host, st.Port))
	}
	conn, err := f.Network.Dial(f.Config.Client, fmt.Sprintf("%s:%d", st.Host, st.DataPort))
	if err != nil {
		return nil, fmt.Errorf("labreg: mount data channel: %w", err)
	}
	return datachan.NewMount(conn), nil
}

// ConnectSession implements sched.Connector: instrument handles on
// the echem station, dialed from the config's client host.
func (f *Facility) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	st := f.EchemStation()
	if st == nil {
		return nil, nil, fmt.Errorf("labreg: facility %s has no echem station", f.Config.Facility)
	}
	session, err := core.ConnectSession(f.stationURI(st), f.dialer(), core.SessionOptions{Token: f.opts.AuthToken})
	if err != nil {
		return nil, nil, err
	}
	mount, err := f.mountStation(st)
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, mount, nil
}

// ConnectLab implements sched.Connector: extended-lab handles
// (instruments + synthesis + robot).
func (f *Facility) ConnectLab() (*core.LabSession, datachan.Share, error) {
	st := f.EchemStation()
	if st == nil {
		return nil, nil, fmt.Errorf("labreg: facility %s has no echem station", f.Config.Facility)
	}
	session, err := core.ConnectLabSession(f.stationURI(st), f.dialer(), f.opts.AuthToken)
	if err != nil {
		return nil, nil, err
	}
	mount, err := f.mountStation(st)
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, mount, nil
}

// ConnectScan implements sched.ScanConnector: a session onto the scan
// station's daemon plus its data share and the scan object's export
// name. Facilities without a scan device return an error, which the
// runner surfaces as a terminal workload fault.
func (f *Facility) ConnectScan() (*core.RemoteSession, datachan.Share, string, error) {
	f.mu.Lock()
	st, name := f.scan, f.scanName
	f.mu.Unlock()
	if st == nil {
		return nil, nil, "", fmt.Errorf("labreg: facility %s has no scan station", f.Config.Facility)
	}
	session, err := core.ConnectSession(f.stationURI(st), f.dialer(), core.SessionOptions{Token: f.opts.AuthToken})
	if err != nil {
		return nil, nil, "", err
	}
	mount, err := f.mountStation(st)
	if err != nil {
		session.Close()
		return nil, nil, "", err
	}
	return session, mount, name, nil
}

// HealthInstruments maps instrument class → lease resources for
// sched.HealthConfig.Instruments, derived from the declared devices.
func (f *Facility) HealthInstruments() map[string][]string {
	out := map[string][]string{}
	for _, dev := range f.Config.Devices {
		kind, ok := kindFor(dev.Kind)
		if !ok || kind.Class == "" || kind.Resource == nil {
			continue
		}
		res := kind.Resource(dev)
		if !contains(out[kind.Class], res) {
			out[kind.Class] = append(out[kind.Class], res)
		}
	}
	return out
}

// ClassesFor narrows health supervision per job kind (the
// sched.HealthConfig.ClassesFor hook): scan jobs lease only the scan
// classes, everything else leases only the echem classes — so a cv
// job never waits on a quarantined microscope or vice versa.
func (f *Facility) ClassesFor(spec sched.JobSpec) []string {
	scanClasses := map[string]bool{"stem": true}
	var out []string
	for _, dev := range f.Config.Devices {
		kind, ok := kindFor(dev.Kind)
		if !ok || kind.Class == "" {
			continue
		}
		wantScan := spec.Kind == sched.KindScan
		if scanClasses[kind.Class] == wantScan && !contains(out, kind.Class) {
			out = append(out, kind.Class)
		}
	}
	return out
}

// GateResources resolves a named gate into its member devices' lease
// resources (devices whose kind holds no lease contribute nothing).
func (f *Facility) GateResources(gate string) ([]string, error) {
	for _, g := range f.Config.Gates {
		if g.Name != gate {
			continue
		}
		byName := map[string]Device{}
		for _, dev := range f.Config.Devices {
			byName[dev.Name] = dev
		}
		var out []string
		for _, name := range g.Devices {
			dev := byName[name]
			kind, ok := kindFor(dev.Kind)
			if !ok || kind.Class == "" || kind.Resource == nil {
				continue
			}
			if res := kind.Resource(dev); !contains(out, res) {
				out = append(out, res)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("labreg: no gate %q in facility %s", gate, f.Config.Facility)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Close tears every station down.
func (f *Facility) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var first error
	for _, st := range f.stations {
		if err := st.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
