package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ice/internal/analysis"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/potentiostat"
	"ice/internal/units"
)

// The paper's lab steps, each written once. The notebook workflow, the
// DAG executor, the campaign executor and the command-line tools all
// call these, so the order of Fig. 5's syringe commands, Fig. 6's SP200
// pipeline, the digest check on retrieval and the analysis temperature
// are each decided in one place. Step 7 (the blocking result wait),
// instrument resets, tracing and lease release differ per caller and
// stay with it.

// Retrieval defaults: the data-channel poll and the wait for the
// measurement file to appear and settle.
const (
	defaultWaitPoll    = 20 * time.Millisecond
	defaultWaitTimeout = 2 * time.Minute
)

// step is one labelled remote call.
type step struct {
	label string
	call  func() (string, error)
}

// FillCell runs Fig. 5's cell fill: set the plunger rate, select the
// stock port, withdraw, select the cell port, dispense. It checks ctx
// before each call. logf, when set, receives each call's label and
// reply.
func FillCell(ctx context.Context, s *RemoteSession, f FillParams, logf func(string, ...any)) error {
	for _, st := range []step{
		{"Set_Rate_SyringePump", func() (string, error) { return s.SetRateSyringePump(f.PumpAddr, f.RateMLMin) }},
		{"Set_Port_SyringePump", func() (string, error) { return s.SetPortSyringePump(f.PumpAddr, f.StockPort) }},
		{"Withdraw_SyringePump", func() (string, error) { return s.WithdrawSyringePump(f.PumpAddr, f.VolumeML) }},
		{"Set_Port_SyringePump", func() (string, error) { return s.SetPortSyringePump(f.PumpAddr, f.CellPort) }},
		{"Dispense_SyringePump", func() (string, error) { return s.DispenseSyringePump(f.PumpAddr, f.VolumeML) }},
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := st.call()
		if err != nil {
			return fmt.Errorf("%s: %w", st.label, err)
		}
		if logf != nil {
			logf("%s\n%s", st.label, out)
		}
	}
	return nil
}

// PowerUpSP200 runs Fig. 6's steps 1–3: initialise the API, connect,
// load the firmware.
func PowerUpSP200(s *RemoteSession, p SystemParams, logf func(string, ...any)) error {
	return runPipeline(1, []step{
		{"call_Initialize_SP200_API", func() (string, error) { return s.CallInitializeSP200API(p) }},
		{"call_Connect_SP200", s.CallConnectSP200},
		{"call_Load_Firmware_SP200", s.CallLoadFirmwareSP200},
	}, logf)
}

// StartCV runs Fig. 6's steps 4–6 on a powered-up SP200: configure the
// CV technique, load it, start the channel. The measurement is then in
// flight; step 7 (CallGetTechPathRslt) waits for it.
func StartCV(s *RemoteSession, p CVParams, logf func(string, ...any)) error {
	return runPipeline(4, []step{
		{"call_Initialize_CV_Tech_SP200", func() (string, error) { return s.CallInitializeCVTechSP200(p) }},
		{"call_Load_Technique_SP200", s.CallLoadTechniqueSP200},
		{"call_Start_Channel_SP200", s.CallStartChannelSP200},
	}, logf)
}

// runPipeline runs SP200 steps numbered from first, as Fig. 6 numbers
// them.
func runPipeline(first int, steps []step, logf func(string, ...any)) error {
	for i, st := range steps {
		out, err := st.call()
		if err != nil {
			return fmt.Errorf("step %d %s: %w", first+i, st.label, err)
		}
		if logf != nil {
			logf("(%d) %s → %s", first+i, st.label, out)
		}
	}
	return nil
}

// RetrieveVerified waits on the data channel for the measurement file
// matching name to appear and settle, then checks the local bytes
// against the export-side SHA-256 before anything analyses them. It
// returns the bytes, the file's full name and the hex digest. poll and
// timeout default to 20 ms and 2 min when zero.
func RetrieveVerified(ctx context.Context, share datachan.Share, name string, poll, timeout time.Duration) (data []byte, gotName, sum string, err error) {
	if poll <= 0 {
		poll = defaultWaitPoll
	}
	if timeout <= 0 {
		timeout = defaultWaitTimeout
	}
	waitCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	data, gotName, err = share.WaitForContext(waitCtx, name, poll)
	if err != nil {
		return nil, "", "", fmt.Errorf("data channel: %w", err)
	}
	local := sha256.Sum256(data)
	sum = hex.EncodeToString(local[:])
	remoteSum, remoteSize, err := share.Checksum(gotName)
	if err != nil {
		return nil, "", "", fmt.Errorf("data channel checksum: %w", err)
	}
	if remoteSum != sum || remoteSize != int64(len(data)) {
		return nil, "", "", fmt.Errorf("measurement file %q failed end-to-end verification (local %d bytes sha %.8s, remote %d bytes sha %.8s)",
			gotName, len(data), sum, remoteSize, remoteSum)
	}
	return data, gotName, sum, nil
}

// AnalyzeCV parses a retrieved .mpt file and runs the peak analysis at
// the cell's 25 °C.
func AnalyzeCV(data []byte) ([]potentiostat.Record, *analysis.CVSummary, error) {
	mf, err := potentiostat.ParseMPT(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("parse measurements: %w", err)
	}
	summary, err := analyzeRecords(mf.Records)
	if err != nil {
		return nil, nil, err
	}
	return mf.Records, summary, nil
}

// analyzeRecords is AnalyzeCV's analysis half, for records that were
// parsed incrementally while streaming.
func analyzeRecords(records []potentiostat.Record) (*analysis.CVSummary, error) {
	e, i := analysis.FromRecords(records)
	summary, err := analysis.AnalyzeCV(e, i, units.Celsius(25))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return summary, nil
}

// ClassifyCV is the §4.3.3 normality check: feature extraction, then
// the ensemble's verdict (an ml.Class* value).
func ClassifyCV(clf *ml.Ensemble, records []potentiostat.Record) (int, error) {
	e, i := analysis.FromRecords(records)
	feats, err := ml.Features(e, i)
	if err != nil {
		return 0, fmt.Errorf("feature extraction: %w", err)
	}
	class, err := clf.Predict(feats)
	if err != nil {
		return 0, fmt.Errorf("classification: %w", err)
	}
	return class, nil
}
