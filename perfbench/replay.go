package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/guest"
)

// replayWorkload is replay-audit: the IRIS-style forensic path. Set-up
// records the cluster scenario of the same variant once, into presized
// buffers; every episode then replays all host streams with
// ReplayConfig{Strict: true} into the identical auditing plane, reading
// through ReplayView and ReplayCounter. No guest runs and no VM is built.
// A call is one full replay pass; the first pass is warm-up.
type replayWorkload struct {
	variant int
	refs    *references

	streams  [][]byte
	sym      guest.Symbols
	verdicts string // the live recording run's verdicts
	recCheck error  // the recording run's own output check
	warmed   bool
}

// recordBufBytes presizes each host's capture buffer so recording never
// regrows it mid-run.
const recordBufBytes = 32 << 20

func (w *replayWorkload) prepare(rc *runCtx) error {
	bufs := make([]*bytes.Buffer, numHosts)
	sinks := make([]io.Writer, numHosts)
	for i := range bufs {
		bufs[i] = bytes.NewBuffer(make([]byte, 0, recordBufBytes))
		sinks[i] = bufs[i]
	}
	lc, err := buildCluster(w.variant, sinks, nil, nil)
	if err != nil {
		return err
	}
	for r := 0; r < totalRounds; r++ {
		if err := lc.step(nil); err != nil {
			return err
		}
	}
	verdicts, full, err := lc.finish(func(i int) int64 { return int64(bufs[i].Len()) })
	if err != nil {
		return err
	}
	w.recCheck = w.refs.checkCluster(w.variant, verdicts, full)
	if rc.regen != nil {
		w.recCheck = nil
	}
	w.verdicts = verdicts
	w.sym = lc.sym
	for _, b := range bufs {
		w.streams = append(w.streams, b.Bytes())
	}
	return nil
}

// replayPlane is one pass's replays, one per host stream, with the auditors
// wired.
type replayPlane struct {
	rps   []*capture.Replay
	hosts []*hostAuditors
}

func (w *replayWorkload) build(rc *runCtx) (*replayPlane, error) {
	p := &replayPlane{}
	for i, s := range w.streams {
		fl := core.NewFlightTable(vmsPerHost, 0, 0)
		fl.SetVMBase(core.VMID(i * vmsPerHost))
		rp, err := capture.NewReplay(bytes.NewReader(s), capture.ReplayConfig{Strict: true, Flight: fl})
		if err != nil {
			return nil, err
		}
		var sides []vmSide
		for j := 0; j < vmsPerHost; j++ {
			id := core.VMID(i*vmsPerHost + j)
			sides = append(sides, vmSide{
				id: id, clock: rp.Clock(id), vcpus: vmVCPUs,
				view: traceView(rc.tr, rp.View(id)), counter: rp.Counter(id), sym: w.sym,
			})
		}
		ha, err := wireHost(rp.EM(), sides, rc.tr)
		if err != nil {
			return nil, err
		}
		p.rps = append(p.rps, rp)
		p.hosts = append(p.hosts, ha)
	}
	return p, nil
}

// pass replays every stream and renders the verdicts.
func (p *replayPlane) pass() (string, error) {
	var vb strings.Builder
	for i, rp := range p.rps {
		if err := rp.Run(); err != nil {
			return "", err
		}
		if err := p.hosts[i].verdicts(&vb); err != nil {
			return "", err
		}
		if n := rp.Divergences(); n != 0 {
			return "", fmt.Errorf("replay of host %d diverged %d times", i, n)
		}
	}
	return vb.String(), nil
}

func (w *replayWorkload) episode(rc *runCtx) (episode, error) {
	var ep episode
	c0 := processCPU()
	p, err := w.build(rc)
	if err != nil {
		return ep, err
	}
	ep.setup = processCPU() - c0

	t0, c0 := time.Now(), processCPU()
	var verdicts string
	if rc.tr != nil {
		rc.tr.setRequest(rc.tr.req + 1)
	}
	rc.tr.span("replay.pass", func() { verdicts, err = p.pass() })
	if err != nil {
		return ep, err
	}
	d, wall := processCPU()-c0, time.Since(t0)
	var events uint64
	for _, rp := range p.rps {
		events += rp.EM().Published()
	}

	// The replay must reproduce the live run's verdicts, and those match the
	// stored reference.
	ep.check = w.recCheck
	if ep.check == nil && verdicts != w.verdicts {
		ep.check = fmt.Errorf("replay verdicts differ from the live run that recorded the streams")
	}
	if ep.check == nil && rc.regen == nil {
		ep.check = w.refs.checkCluster(w.variant, verdicts, "")
	}
	if !w.warmed {
		w.warmed = true
		ep.warmup = d
		return ep, nil
	}
	ep.calls = []time.Duration{d}
	ep.cpu = d
	ep.wall = wall
	ep.events = events
	ep.units = 1
	if rc.layers != nil {
		for i, rp := range p.rps {
			collectEM(rc.layers, rp.EM(), hostVMIDs(i))
		}
		w.decode(rc)
	}
	return ep, nil
}

// decode is the traced run's bare capture-reader pass: Reader.Next over
// every stream with no EM behind it.
func (w *replayWorkload) decode(rc *runCtx) {
	var rec capture.Record
	var records, size int
	rc.tr.span("capture.decode", func() {
		for _, s := range w.streams {
			rd, err := capture.NewReader(bytes.NewReader(s))
			if err != nil {
				return
			}
			for rd.Next(&rec) == nil {
				records++
			}
			size += len(s)
		}
	})
	rc.layers.add("capture.decode.records", float64(records))
	rc.layers.add("capture.decode.bytes", float64(size))
}

// hostVMIDs lists host i's cluster-global VMIDs.
func hostVMIDs(i int) []core.VMID {
	ids := make([]core.VMID, vmsPerHost)
	for j := range ids {
		ids[j] = core.VMID(i*vmsPerHost + j)
	}
	return ids
}
