package dag

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/potentiostat"
)

// DefaultClassifierSeed is the training seed ml-classify nodes use
// when the spec does not pin one. The seed fully determines the
// ensemble, so the verdict for a given measurement is reproducible
// across processes and facilities.
const DefaultClassifierSeed = 7

var (
	classifierMu    sync.Mutex
	classifierCache = map[int64]*ml.Ensemble{}
)

// ClassifierForSeed trains (once per process) and returns the
// normality classifier for a seed. Training is deterministic in the
// seed, so two facilities running the same spec agree on verdicts.
func ClassifierForSeed(seed int64) (*ml.Ensemble, error) {
	classifierMu.Lock()
	defer classifierMu.Unlock()
	if e, ok := classifierCache[seed]; ok {
		return e, nil
	}
	e, _, err := ml.TrainNormalityClassifier(ml.GenerateConfig{
		PerClass: 12,
		Samples:  300,
		BaseSeed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("dag: train classifier (seed %d): %w", seed, err)
	}
	classifierCache[seed] = e
	return e, nil
}

// LabExecutor runs DAG nodes against a live lab: pyro RPCs over the
// control channel, measurement retrieval over the data channel, and
// local analysis — the same split as the hardwired A–E workflow.
type LabExecutor struct {
	Session *core.RemoteSession
	Mount   datachan.Share
	// Classifier, when set, overrides seed-derived training for
	// ml-classify nodes (the equivalence test shares one trained
	// ensemble between the classic and DAG paths this way).
	Classifier *ml.Ensemble
}

// RunNode dispatches one node by type.
func (x *LabExecutor) RunNode(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error) {
	n := inv.Node
	switch n.Type {
	case TypePyro:
		return x.runPyro(ctx, n)
	case TypeFill:
		return x.runFill(ctx, n)
	case TypeAcquire:
		return x.runAcquire(ctx, inv)
	case TypeRetrieve:
		return x.runRetrieve(ctx, inv)
	case TypeAnalyze:
		return x.runAnalyze(inv)
	case TypeClassify:
		return x.runClassify(inv)
	}
	return nil, nil, fmt.Errorf("no executor for node type %q", n.Type)
}

func (x *LabExecutor) runPyro(ctx context.Context, n *Node) (*NodeResult, []byte, error) {
	x.Session.BindTraceContext(ctx)
	if n.Object == "sp200" && n.Method == "DisconnectSP200" {
		// Teardown must also succeed when the upstream acquire was served
		// from cache or a checkpoint and the instrument never powered on;
		// ResetSP200 is the disconnect that tolerates the off state.
		if err := x.Session.ResetSP200(); err != nil {
			return nil, nil, fmt.Errorf("%s.%s: %w", n.Object, n.Method, err)
		}
		return &NodeResult{Output: "disconnected"}, nil, nil
	}
	out, err := x.Session.Call(n.Object, n.Method, n.Args...)
	if err != nil {
		return nil, nil, fmt.Errorf("%s.%s: %w", n.Object, n.Method, err)
	}
	return &NodeResult{Output: out}, nil, nil
}

func (x *LabExecutor) runFill(ctx context.Context, n *Node) (*NodeResult, []byte, error) {
	x.Session.BindTraceContext(ctx)
	f := n.Fill
	fill := core.FillParams{PumpAddr: f.PumpAddr, StockPort: f.StockPort, CellPort: f.CellPort, VolumeML: f.VolumeML, RateMLMin: f.RateMLMin}
	if err := core.FillCell(ctx, x.Session, fill, nil); err != nil {
		return nil, nil, err
	}
	return &NodeResult{Output: fmt.Sprintf("filled %.1f mL via pump %d", f.VolumeML, f.PumpAddr)}, nil, nil
}

// runAcquire drives the six-step SP200 pipeline plus the blocking
// result wait. inv.OnMeasured fires as soon as the remote file
// exists — the acquire→retrieve boundary where the engine can release
// the instrument gate. The node's digest is the export-side SHA-256,
// read over the data channel after the instrument is free.
func (x *LabExecutor) runAcquire(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error) {
	n := inv.Node
	x.Session.BindTraceContext(ctx)
	x.Session.BindCallContext(ctx)
	defer x.Session.BindCallContext(nil)
	// Clear any stale SP200 state from a previous node or crashed
	// attempt, exactly as the hardwired workflow does before task D.
	if err := x.Session.ResetSP200(); err != nil {
		return nil, nil, fmt.Errorf("reset sp200: %w", err)
	}
	if err := core.PowerUpSP200(x.Session, n.Acquire.System, nil); err != nil {
		return nil, nil, err
	}
	if err := core.StartCV(x.Session, n.Acquire.CV, nil); err != nil {
		return nil, nil, err
	}
	fileName, err := x.Session.CallGetTechPathRslt()
	if err != nil {
		return nil, nil, fmt.Errorf("step 7 call_Get_Tech_Path_Rslt: %w", err)
	}
	if inv.OnMeasured != nil {
		inv.OnMeasured(fileName)
	}
	// The instrument is free; the digest read rides the data channel.
	remoteSum, remoteSize, err := x.Mount.Checksum(fileName)
	if err != nil {
		return nil, nil, fmt.Errorf("checksum %q: %w", fileName, err)
	}
	return &NodeResult{
		File:   fileName,
		Digest: remoteSum,
		Output: fmt.Sprintf("measured %s (%d bytes)", fileName, remoteSize),
	}, nil, nil
}

// runRetrieve pulls the acquire dependency's measurement over the
// data channel with the workflow's end-to-end verification, and
// additionally pins the bytes to the digest the acquire node
// recorded — a re-acquisition cannot masquerade as the original.
func (x *LabExecutor) runRetrieve(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error) {
	acq := inv.Deps[inv.Node.depOfType(specIndex(inv), TypeAcquire)]
	if acq == nil || acq.File == "" {
		return nil, nil, fmt.Errorf("acquire dependency reported no measurement file")
	}
	data, gotName, localSum, err := core.RetrieveVerified(ctx, x.Mount, acq.File, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	if acq.Digest != "" && acq.Digest != localSum {
		return nil, nil, fmt.Errorf("measurement file %q changed since acquisition (acquired sha %.8s, retrieved sha %.8s)",
			gotName, acq.Digest, localSum)
	}
	return &NodeResult{
		File:   gotName,
		Digest: localSum,
		Output: fmt.Sprintf("retrieved %d bytes, end-to-end verified", len(data)),
	}, data, nil
}

func (x *LabExecutor) runAnalyze(inv *Invocation) (*NodeResult, []byte, error) {
	data, err := retrievePayload(inv)
	if err != nil {
		return nil, nil, err
	}
	records, summary, err := core.AnalyzeCV(data)
	if err != nil {
		return nil, nil, err
	}
	return &NodeResult{
		Points:       len(records),
		AnodicPeakUA: summary.AnodicPeak.Microamperes(),
		Output:       summary.String(),
	}, nil, nil
}

func (x *LabExecutor) runClassify(inv *Invocation) (*NodeResult, []byte, error) {
	data, err := retrievePayload(inv)
	if err != nil {
		return nil, nil, err
	}
	clf := x.Classifier
	if clf == nil {
		clf, err = ClassifierForSeed(inv.Node.Seed)
		if err != nil {
			return nil, nil, err
		}
	}
	mf, err := potentiostat.ParseMPT(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("parse measurements: %w", err)
	}
	class, err := core.ClassifyCV(clf, mf.Records)
	if err != nil {
		return nil, nil, err
	}
	return &NodeResult{
		Class:     class,
		ClassName: ml.ClassName(class),
		Output:    fmt.Sprintf("normality verdict: %s", ml.ClassName(class)),
	}, nil, nil
}

// retrievePayload finds the retrieve dependency's bytes in the
// invocation payload map.
func retrievePayload(inv *Invocation) ([]byte, error) {
	for dep, res := range inv.Deps {
		if res.Type == TypeRetrieve {
			if data, ok := inv.Payload[dep]; ok {
				return data, nil
			}
			return nil, fmt.Errorf("retrieve dependency %q has no payload (blob evicted?)", dep)
		}
	}
	return nil, fmt.Errorf("no retrieve dependency resolved")
}

// specIndex builds a type lookup over the invocation's dependencies
// so Node.depOfType works without the full spec.
func specIndex(inv *Invocation) map[string]*Node {
	m := make(map[string]*Node, len(inv.Deps))
	for id, res := range inv.Deps {
		m[id] = &Node{ID: id, Type: res.Type}
	}
	return m
}
