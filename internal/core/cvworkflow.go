package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ice/internal/analysis"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/potentiostat"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// CVWorkflowConfig parameterises the demonstrated electrochemical
// workflow.
type CVWorkflowConfig struct {
	// Fill is the task-C cell-filling sequence.
	Fill FillParams
	// System is the task-D step-1 payload.
	System SystemParams
	// CV is the task-D technique program.
	CV CVParams
	// GasSCCM is the argon purge set during task B.
	GasSCCM float64
	// Classifier optionally runs the ML normality check on the
	// retrieved measurements.
	Classifier *ml.Ensemble
	// WaitPoll and WaitTimeout bound the data-channel wait for the
	// measurement file.
	WaitPoll    time.Duration
	WaitTimeout time.Duration
	// AcquireTimeout, when > 0, bounds task D's instrument hold (the
	// eight-step SP200 pipeline through call_Get_Tech_Path_Rslt) with
	// a per-phase sub-budget: the deadline is bound into the session's
	// call context, so a potentiostat wedged mid-acquire surfaces as a
	// budget error in seconds instead of riding out the full workflow
	// timeout or lease TTL. The scheduler treats a fired acquire
	// budget as hard evidence the instrument is sick.
	AcquireTimeout time.Duration
	// OnMeasured, when set, is called inside task D the moment
	// call_Get_Tech_Path_Rslt returns — acquisition has finished
	// streaming to the agent's disk and the instruments are free, but
	// the WAN retrieval and analysis are still ahead. The scheduling
	// gateway releases its instrument lease here, the same point a
	// fleet's shared gate releases, so one tenant's data phase overlaps
	// the next tenant's instrument time.
	OnMeasured func(fileName string)
	// TeardownGate, when set, is held around task E's instrument
	// shutdown. A multi-tenant scheduler that released its instrument
	// lease at OnMeasured re-acquires it here, so one tenant's
	// disconnect cannot fire inside another tenant's acquisition
	// pipeline on the shared instrument.
	TeardownGate sync.Locker
	// TraceLabel names this workflow's holder in phase spans (usually
	// the job or cell ID); the critical-path analyzer uses it to tell
	// one tenant's data phase from another's instrument phase when
	// measuring overlap.
	TraceLabel string
	// StreamAnalysis overlaps retrieval and analysis with acquisition:
	// the measurement file is tailed over the data channel while the
	// SP200 is still writing it, records are parsed incrementally, and
	// (when Classifier is set) windowed feature extraction plus
	// ensemble classification run online so the normality verdict is
	// ready within the acquisition window — the analysis segment
	// collapses into the instrument segment on the critical path. The
	// streamed bytes are verified end-to-end against the export-side
	// SHA-256 exactly like the classic path; any streaming failure
	// falls back to the classic retrieve-then-analyze sequence, so the
	// outcome is never weaker than with streaming off.
	StreamAnalysis bool
}

// PaperCVWorkflowConfig returns the demonstration parameters.
func PaperCVWorkflowConfig() CVWorkflowConfig {
	return CVWorkflowConfig{
		Fill:        PaperFillParams(),
		System:      PaperSystemParams(),
		CV:          PaperCVParams(),
		GasSCCM:     20,
		WaitPoll:    defaultWaitPoll,
		WaitTimeout: defaultWaitTimeout,
	}
}

// CVOutcome collects what task D produced for downstream use.
type CVOutcome struct {
	// FileName is the measurement file retrieved over the data channel.
	FileName string
	// SHA256 is the hex digest of the retrieved file's bytes, verified
	// against the export-side checksum before analysis.
	SHA256 string
	// Records are the parsed measurements.
	Records []potentiostat.Record
	// Summary is the remote-side peak analysis.
	Summary *analysis.CVSummary
	// Classified reports whether the ML check ran.
	Classified bool
	// Class and ClassName are the ML verdict.
	Class     int
	ClassName string
	// Streamed reports that the streaming path retrieved and analyzed
	// the measurements concurrently with acquisition.
	Streamed bool
	// StreamEvals counts the provisional online verdicts produced
	// while the instrument was still acquiring.
	StreamEvals int
	// AcquireEnd and VerdictReady timestamp the instrument release
	// (step 7 returning) and the final classification; on the
	// streaming path their gap is the verdict-ready latency the
	// acquisition window hides.
	AcquireEnd, VerdictReady time.Time
}

// mountStats is satisfied by a ReliableMount: the workflow uses it to
// notice the data channel flapping during a retrieval.
type mountStats interface {
	Stats() datachan.MountStats
}

// spanBinder is satisfied by a ReliableMount: the workflow binds the
// current retrieval's span so redials/resumes land on it as events.
type spanBinder interface {
	SetSpan(*trace.Span)
}

// BuildCVWorkflow composes the paper's tasks A–E against an open
// session and data mount (plain or reliable — any datachan.Share).
// The returned outcome is populated as the notebook executes.
func BuildCVWorkflow(session *RemoteSession, mount datachan.Share, cfg CVWorkflowConfig) (*workflow.Notebook, *CVOutcome) {
	nb := workflow.New("electrochemical-cv")
	outcome := &CVOutcome{}
	if cfg.WaitPoll <= 0 {
		cfg.WaitPoll = defaultWaitPoll
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = defaultWaitTimeout
	}

	// phase opens a classed sub-span under the running task's span,
	// stamped with the workflow's holder label so the critical-path
	// analyzer can attribute instrument/data/analysis time per tenant.
	phase := func(c *workflow.Context, name, class string) (context.Context, *trace.Span) {
		ctx, span := trace.Start(c.Ctx, name, class)
		if cfg.TraceLabel != "" {
			span.SetAttr("holder", cfg.TraceLabel)
		}
		return ctx, span
	}

	nb.MustAdd(&workflow.Task{
		ID: "A", Title: "Establish Pyro communications across ICE",
		Run: func(c *workflow.Context) (string, error) {
			session.BindTraceContext(c.Ctx)
			if _, err := session.JKemStatus(); err != nil {
				return "", fmt.Errorf("J-Kem object unreachable: %w", err)
			}
			if _, err := session.SP200Status(); err != nil {
				return "", fmt.Errorf("SP200 object unreachable: %w", err)
			}
			return "OK", nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "B", Title: "Configure and connect J-Kem instrument setup",
		DependsOn: []string{"A"},
		Run: func(c *workflow.Context) (string, error) {
			session.BindTraceContext(c.Ctx)
			if cfg.GasSCCM > 0 {
				if _, err := session.SetGasFlow(1, cfg.GasSCCM); err != nil {
					return "", err
				}
			}
			if _, err := session.SetVialFractionCollector(1, cfg.Fill.Vial); err != nil {
				return "", err
			}
			temp, err := session.ReadTemperature(1)
			if err != nil {
				return "", err
			}
			c.Logf("cell at %.2f °C, purge %.1f sccm", temp, cfg.GasSCCM)
			return "OK", nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "C", Title: "Fill electrochemical cell with ferrocene solution",
		DependsOn: []string{"B"},
		Run: func(c *workflow.Context) (st string, err error) {
			// The fill moves physical liquid under exclusive J-Kem
			// control: instrument-class time for the breakdown.
			fillCtx, fillSpan := phase(c, "cv.fill", trace.ClassInstrument)
			session.BindTraceContext(fillCtx)
			defer func() { fillSpan.EndErr(err) }()
			if err := FillCell(fillCtx, session, cfg.Fill, c.Logf); err != nil {
				return "", err
			}
			return "OK", nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "D", Title: "Run CV on SP200 and collect I-V measurements",
		DependsOn: []string{"C"},
		Run: func(c *workflow.Context) (string, error) {
			// Streaming state: when StreamAnalysis is on, a goroutine
			// tails the measurement file and analyzes it online while
			// step 7 blocks on the pipelined control channel.
			type streamOutcome struct {
				data   []byte
				res    datachan.StreamResult
				parser *potentiostat.StreamParser
				online *ml.OnlineClassifier
				err    error
			}
			var (
				streamCh     chan *streamOutcome
				streamCancel context.CancelFunc
				acquireDone  atomic.Bool
			)
			defer func() {
				if streamCancel != nil {
					streamCancel()
				}
			}()
			// Phase 1 — instrument hold: the eight-step SP200 pipeline
			// through call_Get_Tech_Path_Rslt. The span ends the moment
			// the instruments are free (the same point OnMeasured
			// releases the gateway's lease), so instrument-hold time in
			// the trace matches the lease the scheduler accounts.
			acquireCtx, acquireSpan := phase(c, "cv.acquire", trace.ClassInstrument)
			cancelAcquire := func() {}
			if cfg.AcquireTimeout > 0 {
				var cancel context.CancelFunc
				acquireCtx, cancel = context.WithTimeout(acquireCtx, cfg.AcquireTimeout)
				cancelAcquire = cancel
			}
			session.BindTraceContext(acquireCtx)
			// Bind the phase context so its deadline bounds every SP200
			// call in the pipeline, including the blocking step-7 wait.
			session.BindCallContext(acquireCtx)
			fileName, err := func() (string, error) {
				if err := PowerUpSP200(session, cfg.System, c.Logf); err != nil {
					return "", err
				}
				if err := StartCV(session, cfg.CV, c.Logf); err != nil {
					return "", err
				}
				// Streaming retrieval + online analysis: learn the file
				// name now (step 6 fixed it before the first flush) and
				// tail it while step 7's blocking wait is in flight.
				if cfg.StreamAnalysis {
					fileHint, err := session.CallGetTechFileName()
					if err != nil {
						c.Logf("streaming analysis unavailable (%v); will retrieve classically", err)
					} else {
						var sctx context.Context
						sctx, streamCancel = context.WithCancel(c.Ctx)
						streamCh = make(chan *streamOutcome, 1)
						go func() {
							so := &streamOutcome{parser: &potentiostat.StreamParser{}}
							if cfg.Classifier != nil {
								so.online = &ml.OnlineClassifier{
									Classifier: cfg.Classifier,
									OnVerdict: func(class, points int) {
										c.Logf("… online verdict over %d points: %s", points, ml.ClassName(class))
									},
								}
							}
							// Both spans run concurrently with cv.acquire,
							// so the critical-path breakdown attributes
							// this wall time to the instrument segment:
							// retrieval and analysis collapse into the
							// acquisition window.
							_, streamSpan := phase(c, "cv.retrieve", trace.ClassData)
							streamSpan.SetAttr("mode", "stream")
							var anaSpan *trace.Span
							so.data, so.res, so.err = datachan.StreamFile(sctx, mount, fileHint, datachan.StreamOptions{
								Poll: cfg.WaitPoll,
								OnChunk: func(chunk []byte) {
									if chunk == nil { // refetch reset
										so.parser.Reset()
										if so.online != nil {
											so.online.Reset()
										}
										return
									}
									recs, _ := so.parser.Feed(chunk)
									if len(recs) == 0 {
										return
									}
									if anaSpan == nil {
										_, anaSpan = phase(c, "cv.analyze", trace.ClassAnalysis)
										anaSpan.SetAttr("mode", "stream")
									}
									if so.online != nil {
										e, i := analysis.FromRecords(recs)
										so.online.Add(e, i)
									}
								},
								Finished: func() bool { return acquireDone.Load() },
							})
							streamSpan.SetAttr("file", so.res.Name)
							streamSpan.EndErr(so.err)
							anaSpan.EndErr(so.err)
							streamCh <- so
						}()
					}
				}
				fileName, err := session.CallGetTechPathRslt()
				if err != nil {
					return "", fmt.Errorf("step 7 call_Get_Tech_Path_Rslt: %w", err)
				}
				return fileName, nil
			}()
			acquireDone.Store(true)
			outcome.AcquireEnd = time.Now()
			budgetFired := cfg.AcquireTimeout > 0 &&
				errors.Is(acquireCtx.Err(), context.DeadlineExceeded) && c.Ctx.Err() == nil
			cancelAcquire()
			session.BindCallContext(c.Ctx)
			if err != nil && budgetFired {
				// Attribute the timeout to the instrument: the job's own
				// deadline had not arrived, so this phase hung.
				err = fmt.Errorf("sp200 acquire phase exceeded its %v budget: %w", cfg.AcquireTimeout, err)
			}
			acquireSpan.EndErr(err)
			session.BindTraceContext(c.Ctx)
			if err != nil {
				return "", err
			}
			c.Logf("(7) measurements are collected: %s", fileName)
			if cfg.OnMeasured != nil {
				cfg.OnMeasured(fileName)
			}

			// Streamed completion: the tail-reader drains the last
			// bytes, the accumulated stream is digest-verified, and the
			// already-fed classifier finalizes — the only analysis left
			// outside the acquisition window. Any failure falls through
			// to the classic path below.
			if streamCh != nil {
				so := func() *streamOutcome {
					timer := time.NewTimer(cfg.WaitTimeout)
					defer timer.Stop()
					select {
					case so := <-streamCh:
						return so
					case <-timer.C:
						streamCancel()
						return <-streamCh
					}
				}()
				if msg, ok := func() (string, bool) {
					if so.err != nil {
						c.Logf("streaming retrieval failed (%v); falling back to classic retrieval", so.err)
						return "", false
					}
					records := so.parser.Records()
					if len(records) == 0 {
						c.Logf("stream produced no records; falling back to classic retrieval")
						return "", false
					}
					localSum := sha256.Sum256(so.data)
					outcome.SHA256 = hex.EncodeToString(localSum[:])
					outcome.FileName = so.res.Name
					outcome.Records = records
					c.Logf("streamed %d bytes in %d reads, end-to-end verified (sha256 %.16s…)",
						so.res.Bytes, so.res.Reads, outcome.SHA256)
					if so.res.Refetched {
						c.Logf("stream digest mismatch healed by verified refetch")
					}

					// The finalization tail: peak analysis plus the
					// authoritative classification over the full curve
					// (identical to the offline path's result).
					_, finSpan := phase(c, "cv.analyze", trace.ClassAnalysis)
					finSpan.SetAttr("mode", "stream-final")
					err := func() error {
						summary, err := analyzeRecords(records)
						if err != nil {
							return err
						}
						outcome.Summary = summary
						if so.online != nil {
							outcome.StreamEvals = so.online.Evals()
							class, _, err := so.online.Finalize()
							if err != nil {
								return fmt.Errorf("classification: %w", err)
							}
							outcome.Classified = true
							outcome.Class = class
							outcome.ClassName = ml.ClassName(class)
						}
						return nil
					}()
					finSpan.EndErr(err)
					if err != nil {
						c.Logf("streamed analysis failed (%v); falling back to classic retrieval", err)
						return "", false
					}
					outcome.Streamed = true
					outcome.VerdictReady = time.Now()
					c.Logf("I-V analysis: %v", outcome.Summary)
					if outcome.Classified {
						c.Logf("ML normality check: %s (%d online verdicts during acquisition, final %v after instrument release)",
							outcome.ClassName, outcome.StreamEvals, outcome.VerdictReady.Sub(outcome.AcquireEnd).Round(time.Millisecond))
					}
					return fmt.Sprintf("OK %d points (streamed)", len(records)), true
				}(); ok {
					return msg, nil
				}
				// Fallback: reset the outcome fields the stream touched.
				outcome.SHA256, outcome.FileName, outcome.Records, outcome.Summary = "", "", nil, nil
				outcome.Classified, outcome.StreamEvals = false, 0
			}

			// Phase 2 — data channel: retrieve over the (CIFS-mounted)
			// share. On a reliable mount this rides out link faults,
			// resuming from the last verified offset; the mount's
			// redials/resumes land as events on this span, and the
			// health baseline notices flapping during this retrieval.
			_, retrSpan := phase(c, "cv.retrieve", trace.ClassData)
			if sb, ok := mount.(spanBinder); ok {
				sb.SetSpan(retrSpan)
				defer sb.SetSpan(nil)
			}
			var statsBefore datachan.MountStats
			if sr, ok := mount.(mountStats); ok {
				statsBefore = sr.Stats()
			}
			data, gotName, sum, err := RetrieveVerified(c.Ctx, mount, fileName, cfg.WaitPoll, cfg.WaitTimeout)
			if err == nil {
				outcome.SHA256 = sum
				c.Logf("end-to-end verified %d bytes (sha256 %.16s…)", len(data), sum)
			}
			if sb, ok := mount.(spanBinder); ok {
				sb.SetSpan(nil)
			}
			retrSpan.SetAttr("file", fileName)
			retrSpan.EndErr(err)
			if err != nil {
				return "", err
			}

			if sr, ok := mount.(mountStats); ok {
				s := sr.Stats()
				if redials := s.Redials - statsBefore.Redials; redials > 0 {
					session.SetDataChannelDegraded(true)
					c.Logf("data channel degraded during retrieval: %d redials, %d resumes (%d verified bytes preserved)",
						redials, s.Resumes-statsBefore.Resumes, s.BytesResumed-statsBefore.BytesResumed)
				}
			}

			// Phase 3 — analysis: parse and analyze locally.
			_, anaSpan := phase(c, "cv.analyze", trace.ClassAnalysis)
			records, summary, err := AnalyzeCV(data)
			anaSpan.EndErr(err)
			if err != nil {
				return "", err
			}
			outcome.FileName = gotName
			outcome.Records = records
			outcome.Summary = summary
			c.Logf("I-V analysis: %v", summary)

			if cfg.Classifier != nil {
				_, mlSpan := phase(c, "ml.classify", trace.ClassAnalysis)
				class, err := ClassifyCV(cfg.Classifier, records)
				mlSpan.EndErr(err)
				if err != nil {
					return "", err
				}
				outcome.Classified = true
				outcome.Class = class
				outcome.ClassName = ml.ClassName(class)
				c.Logf("ML normality check: %s", outcome.ClassName)
			}
			outcome.VerdictReady = time.Now()
			return fmt.Sprintf("OK %d points", len(records)), nil
		},
	})

	nb.MustAdd(&workflow.Task{
		ID: "E", Title: "Shut down cross-facility connections",
		DependsOn: []string{"A"},
		Run: func(c *workflow.Context) (string, error) {
			session.BindTraceContext(c.Ctx)
			if cfg.TeardownGate != nil {
				cfg.TeardownGate.Lock()
				defer cfg.TeardownGate.Unlock()
			}
			out, err := session.CallExitJKemAPI()
			if err != nil {
				return "", err
			}
			c.Logf("%s", out)
			if _, err := session.CallDisconnectSP200(); err != nil {
				// The SP200 may legitimately be off if task D never
				// initialised it; log but do not fail teardown.
				c.Logf("SP200 disconnect: %v", err)
			}
			return "OK", nil
		},
	})

	return nb, outcome
}
