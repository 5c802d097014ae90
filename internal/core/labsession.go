package core

import (
	"fmt"
	"time"

	"ice/internal/pyro"
)

// LabSession extends a RemoteSession with handles on the synthesis
// workstation and mobile robot objects, for campaigns that close the
// loop from synthesis to measurement.
type LabSession struct {
	*RemoteSession
	synth *pyro.Proxy
	robot *pyro.Proxy
}

// ConnectLabSession dials the instrument objects plus the extended lab
// stations, presenting token (empty for none) as the control channel's
// shared-secret credential.
func ConnectLabSession(daemonURI pyro.URI, dialer pyro.Dialer, token string) (*LabSession, error) {
	opts := SessionOptions{Token: token}
	base, err := ConnectSession(daemonURI, dialer, opts)
	if err != nil {
		return nil, err
	}
	// Synthesis can take a while.
	synth, err := dialProxy(daemonURI.WithObject(SynthesisObject), dialer, opts, 10*time.Minute)
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("core: connect synthesis object: %w", err)
	}
	rob, err := dialProxy(daemonURI.WithObject(RobotObject), dialer, opts, 10*time.Minute)
	if err != nil {
		base.Close()
		synth.Close()
		return nil, fmt.Errorf("core: connect robot object: %w", err)
	}
	return &LabSession{RemoteSession: base, synth: synth, robot: rob}, nil
}

// Close tears down all proxies.
func (s *LabSession) Close() error {
	err := s.RemoteSession.Close()
	s.synth.Close()
	s.robot.Close()
	return err
}

// SynthesizeFerrocene orders a batch and returns its description.
func (s *LabSession) SynthesizeFerrocene(targetMM, volumeML float64) (BatchInfo, error) {
	var out BatchInfo
	err := s.callInto(s.synth, &out, "SynthesizeFerrocene", targetMM, volumeML)
	return out, err
}

// PendingBatches lists batches awaiting pickup.
func (s *LabSession) PendingBatches() ([]string, error) {
	var out []string
	err := s.callInto(s.synth, &out, "PendingBatches")
	return out, err
}

// TransferBatchToCell has the robot move a batch into the cell.
func (s *LabSession) TransferBatchToCell(batchID string) (string, error) {
	return s.call(s.robot, "TransferBatchToCell", batchID)
}

// RobotPosition reports the robot's station.
func (s *LabSession) RobotPosition() (string, error) {
	return s.call(s.robot, "Position")
}

// RobotBattery reports the robot's charge fraction.
func (s *LabSession) RobotBattery() (float64, error) {
	var out float64
	err := s.callInto(s.robot, &out, "Battery")
	return out, err
}

// RobotMoveTo drives the robot to a station.
func (s *LabSession) RobotMoveTo(location string) (string, error) {
	return s.call(s.robot, "MoveTo", location)
}

// RobotCharge recharges the robot at the dock.
func (s *LabSession) RobotCharge() (string, error) {
	return s.call(s.robot, "Charge")
}

// TransferVialToAssay has the robot carry a collected fraction to the
// characterization station and returns the assay.
func (s *LabSession) TransferVialToAssay(position string) (AssayResult, error) {
	var out AssayResult
	err := s.callInto(s.robot, &out, "TransferVialToAssay", position)
	return out, err
}

// TransferVialToHPLC has the robot carry a collected fraction to the
// chromatograph and returns the chromatographic quantification.
func (s *LabSession) TransferVialToHPLC(position string) (HPLCResult, error) {
	var out HPLCResult
	err := s.callInto(s.robot, &out, "TransferVialToHPLC", position)
	return out, err
}
