package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ice/internal/campaign"
	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/datachan"
	"ice/internal/netsim"
)

// The golden call sequences below pin the order and arguments of every
// journaled control-channel call one job makes on a fresh deployment:
// Fig. 5's syringe commands, Fig. 6's SP200 pipeline and the campaign's
// lab-station calls. The notebook, the DAG engine and the campaign
// executor all drive the same instruments, so a refactor of any of them
// must leave its list unchanged. A second list pins the operations
// each path issues on the data channel.

// deployAudited stands up a fresh ICE with the control agent's audit
// journal enabled and returns a reader for the journaled calls.
func deployAudited(t *testing.T, lab bool) (*core.Deployment, func() []string) {
	t.Helper()
	dir := t.TempDir()
	dep, err := core.Deploy(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if lab {
		if err := dep.AttachLab(7, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := dep.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}
	return dep, func() []string {
		data, err := os.ReadFile(filepath.Join(dir, core.AuditFileName))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := core.ParseAuditJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		calls := make([]string, len(entries))
		for i, e := range entries {
			args := make([]string, len(e.Args))
			for j, a := range e.Args {
				args[j] = string(a)
			}
			calls[i] = fmt.Sprintf("%s.%s(%s)", e.Object, e.Method, strings.Join(args, ","))
		}
		return calls
	}
}

func assertCalls(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("call sequence changed\n got:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// recordingShare notes every data operation issued through it.
type recordingShare struct {
	datachan.Share
	mu  sync.Mutex
	ops []string
}

func (r *recordingShare) note(op string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

func (r *recordingShare) List() ([]datachan.FileInfo, error) { r.note("List"); return r.Share.List() }
func (r *recordingShare) Stat(name string) (datachan.FileInfo, error) {
	r.note("Stat")
	return r.Share.Stat(name)
}
func (r *recordingShare) ReadAt(name string, off int64, n int) ([]byte, bool, error) {
	r.note("ReadAt")
	return r.Share.ReadAt(name, off, n)
}
func (r *recordingShare) ReadAll(name string) ([]byte, error) {
	r.note("ReadAll")
	return r.Share.ReadAll(name)
}
func (r *recordingShare) ReadAllVerified(name string) ([]byte, error) {
	r.note("ReadAllVerified")
	return r.Share.ReadAllVerified(name)
}
func (r *recordingShare) Checksum(name string) (string, int64, error) {
	r.note("Checksum")
	return r.Share.Checksum(name)
}
func (r *recordingShare) WaitFor(substr string, poll, timeout time.Duration) ([]byte, string, error) {
	r.note("WaitFor")
	return r.Share.WaitFor(substr, poll, timeout)
}
func (r *recordingShare) WaitForContext(ctx context.Context, substr string, poll time.Duration) ([]byte, string, error) {
	r.note("WaitForContext")
	return r.Share.WaitForContext(ctx, substr, poll)
}
func (r *recordingShare) Watch(interval time.Duration) *datachan.Watcher {
	r.note("Watch")
	return r.Share.Watch(interval)
}

func TestGoldenCallSequenceNotebook(t *testing.T) {
	dep, calls := deployAudited(t, false)
	session, mount, err := dep.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()
	data := &recordingShare{Share: mount}
	nb, _ := core.BuildCVWorkflow(session, data, core.PaperCVWorkflowConfig())
	if err := nb.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertCalls(t, calls(), []string{
		`ACL_JKem.SetGasFlow(1,20)`,
		`ACL_JKem.SetVialFractionCollector(1,"BOTTOM")`,
		`ACL_JKem.SetRateSyringePump(1,5)`,
		`ACL_JKem.SetPortSyringePump(1,8)`,
		`ACL_JKem.WithdrawSyringePump(1,6)`,
		`ACL_JKem.SetPortSyringePump(1,1)`,
		`ACL_JKem.DispenseSyringePump(1,6)`,
		`ACL_SP200.InitializeSP200API({"serial":"SP200-0042","firmware":"kernel4.bin","channels":2})`,
		`ACL_SP200.ConnectSP200()`,
		`ACL_SP200.LoadFirmwareSP200()`,
		`ACL_SP200.InitializeCVTechSP200({"ei_v":0.05,"e1_v":0.8,"e2_v":0.05,"ef_v":0.05,"rate_mv_s":50,"cycles":1,"points":1200})`,
		`ACL_SP200.LoadTechniqueSP200()`,
		`ACL_SP200.StartChannelSP200()`,
		`ACL_SP200.GetTechPathRslt()`,
		`ACL_JKem.ExitJKemAPI()`,
		`ACL_SP200.DisconnectSP200()`,
	})
	assertCalls(t, data.ops, []string{"WaitForContext", "Checksum"})
}

func TestGoldenCallSequenceDAG(t *testing.T) {
	dep, calls := deployAudited(t, false)
	session, mount, err := dep.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "dag", "cv_classic.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dag.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	data := &recordingShare{Share: mount}
	eng := &dag.Engine{Spec: spec, Exec: &dag.LabExecutor{Session: session, Mount: data}}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The acquire node's reset is a Disconnect that the powered-off
	// instrument refuses; the refusal is still journaled.
	assertCalls(t, calls(), []string{
		`ACL_JKem.SetGasFlow(1,20)`,
		`ACL_JKem.SetVialFractionCollector(1,"BOTTOM")`,
		`ACL_JKem.SetRateSyringePump(1,5)`,
		`ACL_JKem.SetPortSyringePump(1,8)`,
		`ACL_JKem.WithdrawSyringePump(1,6)`,
		`ACL_JKem.SetPortSyringePump(1,1)`,
		`ACL_JKem.DispenseSyringePump(1,6)`,
		`ACL_SP200.DisconnectSP200()`,
		`ACL_SP200.InitializeSP200API({"serial":"SP200-0042","firmware":"kernel4.bin","channels":2})`,
		`ACL_SP200.ConnectSP200()`,
		`ACL_SP200.LoadFirmwareSP200()`,
		`ACL_SP200.InitializeCVTechSP200({"ei_v":0.05,"e1_v":0.8,"e2_v":0.05,"ef_v":0.05,"rate_mv_s":50,"cycles":1,"points":1200})`,
		`ACL_SP200.LoadTechniqueSP200()`,
		`ACL_SP200.StartChannelSP200()`,
		`ACL_SP200.GetTechPathRslt()`,
		`ACL_JKem.ExitJKemAPI()`,
		`ACL_SP200.DisconnectSP200()`,
	})
	// The acquire node reads the digest; the retrieve node waits for
	// the file and checks it.
	assertCalls(t, data.ops, []string{"Checksum", "WaitForContext", "Checksum"})
}

func TestGoldenCallSequenceCampaign(t *testing.T) {
	dep, calls := deployAudited(t, true)
	session, mount, err := dep.ConnectLabFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()
	data := &recordingShare{Share: mount}
	e := &campaign.Executor{Session: session, Mount: data, CVPoints: 300}
	if _, err := e.Run(campaign.ScanRateLadder{RatesMVs: []float64{50, 200}, ConcentrationMM: 2}); err != nil {
		t.Fatal(err)
	}
	assertCalls(t, calls(), []string{
		`ACL_JKem.DrainCell()`,
		`ACL_Synthesis.SynthesizeFerrocene(2,8)`,
		`ACL_Robot.TransferBatchToCell("batch-001")`,
		`ACL_SP200.InitializeSP200API({"serial":"SP200-0042","firmware":"kernel4.bin","channels":2})`,
		`ACL_SP200.ConnectSP200()`,
		`ACL_SP200.LoadFirmwareSP200()`,
		`ACL_SP200.InitializeCVTechSP200({"ei_v":0.05,"e1_v":0.8,"e2_v":0.05,"ef_v":0.05,"rate_mv_s":50,"cycles":1,"points":300})`,
		`ACL_SP200.LoadTechniqueSP200()`,
		`ACL_SP200.StartChannelSP200()`,
		`ACL_SP200.GetTechPathRslt()`,
		`ACL_SP200.InitializeCVTechSP200({"ei_v":0.05,"e1_v":0.8,"e2_v":0.05,"ef_v":0.05,"rate_mv_s":200,"cycles":1,"points":300})`,
		`ACL_SP200.LoadTechniqueSP200()`,
		`ACL_SP200.StartChannelSP200()`,
		`ACL_SP200.GetTechPathRslt()`,
	})
	assertCalls(t, data.ops, []string{"WaitForContext", "Checksum", "WaitForContext", "Checksum"})
}
