package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/inject"
)

// hangWrites arms a persistent missing-release fault on the write path, so
// the VM's writer thread wedges its vCPU on the next write.
func hangWrites(h *host.Host, vm int) error {
	m := h.Machine(vm)
	k := m.Kernel()
	for _, s := range k.Sites() {
		if s.Kind == guest.FaultMissingRelease && s.Path == guest.SysWrite {
			plan, err := inject.NewPlan(inject.Fault{Site: s.ID, Persistence: inject.Persistent}, m.Clock().Now)
			if err != nil {
				return err
			}
			k.SetFaultPlan(plan)
			return nil
		}
	}
	return fmt.Errorf("no missing-release site on the write path")
}

var (
	hangOnce sync.Once
	hangData []byte
	hangErr  error
)

// hangCapture returns a capture of a live two-VM host recorded the way
// cmd/hypertap -capture does: vm0 runs healthy, vm1's writes hang its guest.
// The run is recorded once and shared by the tests that read it.
func hangCapture(t *testing.T) []byte {
	t.Helper()
	hangOnce.Do(func() { hangData, hangErr = recordHangCapture() })
	if hangErr != nil {
		t.Fatal(hangErr)
	}
	return hangData
}

// hangCaptureFile writes the shared hang capture to a file of the test's own.
func hangCaptureFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.htcs")
	if err := os.WriteFile(path, hangCapture(t), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func recordHangCapture() ([]byte, error) {
	feat := intercept.Features{ProcessSwitch: true, ThreadSwitch: true, Syscalls: true, IO: true}
	specs := []host.VMSpec{
		{Name: "vm0", VCPUs: 2, Guest: guest.Config{Seed: 12}, Monitor: true, Features: feat},
		{Name: "vm1", VCPUs: 2, Guest: guest.Config{Seed: 13}, Monitor: true, Features: feat},
	}
	h, err := host.New(host.Config{Name: "host0", VMs: specs})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	hdr := capture.Header{Host: h.Name(), Tick: time.Millisecond}
	for i := range specs {
		m := h.Machine(i)
		hdr.VMs = append(hdr.VMs, capture.VMHeader{ID: m.VMID(), Name: m.Name(), VCPUs: m.NumVCPUs()})
	}
	rec, err := capture.NewRecorder(&buf, hdr)
	if err != nil {
		return nil, err
	}
	h.SetExitTap(rec)
	if err := h.Boot(); err != nil {
		return nil, err
	}
	if err := hangWrites(h, 1); err != nil {
		return nil, err
	}
	for i := range specs {
		if _, err := h.Machine(i).Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "w", UID: 1,
			Program: &guest.LoopProgram{Body: []guest.Step{
				guest.DoSyscall(guest.SysWrite, 1, 128),
				guest.Compute(time.Millisecond),
			}},
		}, nil); err != nil {
			return nil, err
		}
	}
	h.Run(10 * time.Second)
	if err := rec.Finish(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func analyze(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("trace-analyze %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// replayLines renders a report's per-VM verdicts the way run prints them.
func replayLines(rep *experiment.StreamReplayReport) []string {
	var lines []string
	for _, vm := range rep.VMs {
		lines = append(lines, fmt.Sprintf("  %-12s %8d events  %d goshd alarms", vm.Name, vm.Events, vm.Alarms))
	}
	return lines
}

// chromeTracks parses a Chrome trace-event file and returns its thread names.
func chromeTracks(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	tracks := map[string]bool{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			name, _ := ev.Args["name"].(string)
			tracks[name] = true
		case ev.Phase == "X":
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("chrome trace holds no event slices")
	}
	return tracks
}

// TestAnalyzeCapture runs the analyzer on a live capture of a hung guest:
// the report carries the summary and offline GOSHD sections with the replay
// verdicts, and the Perfetto export and telemetry snapshot parse.
func TestAnalyzeCapture(t *testing.T) {
	path := hangCaptureFile(t)
	dir := t.TempDir()
	chrome := filepath.Join(dir, "out.json")
	metrics := filepath.Join(dir, "metrics.json")
	out := analyze(t, "-threshold", "4s", "-chrome-trace", chrome, "-metrics", metrics, path)

	for _, want := range []string{
		"capture: format v2, host host0,",
		"clean end marker: true",
		"events by type:",
		"top system calls:",
		"distinct address spaces observed:",
		"offline GOSHD (threshold 4s):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	rep, err := experiment.ReplayStream(bytes.NewReader(hangCapture(t)), experiment.StreamReplayConfig{Threshold: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range replayLines(rep) {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks replay verdict %q:\n%s", line, out)
		}
	}

	tracks := chromeTracks(t, chrome)
	if !tracks["vm0"] || !tracks["vm1"] {
		t.Errorf("chrome tracks %v, want vm0 and vm1 from the capture header", tracks)
	}
	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte("hypertap_goshd_alarms_total")) {
		t.Errorf("telemetry snapshot lacks the GOSHD instruments:\n%s", snap)
	}
}

// TestSummarize checks the one-walk summary of a live capture: extent,
// per-type and per-syscall counts, and distinct address spaces.
func TestSummarize(t *testing.T) {
	s, err := summarize(hangCapture(t), false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events == 0 || s.Extent <= 0 || !s.Ended {
		t.Fatalf("summary = %+v, want a clean, non-empty stream", s)
	}
	if s.ByType[core.EvSyscall] == 0 || s.AddrSpaces == 0 {
		t.Errorf("summary aggregation empty: %+v", s)
	}
	if s.Syscalls[uint32(guest.SysWrite)] == 0 {
		t.Error("write syscalls not aggregated")
	}
}

// TestOfflineHangDetection replays a live capture through offline GOSHD: it
// finds the hang in vm1 after the fact and stays quiet on healthy vm0.
func TestOfflineHangDetection(t *testing.T) {
	rep, err := experiment.ReplayStream(bytes.NewReader(hangCapture(t)), experiment.StreamReplayConfig{Threshold: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VMs) != 2 {
		t.Fatalf("replay reports %d VMs, want 2", len(rep.VMs))
	}
	if rep.VMs[0].Alarms != 0 {
		t.Errorf("offline GOSHD raised %d false alarms on healthy vm0", rep.VMs[0].Alarms)
	}
	if rep.VMs[1].Alarms == 0 {
		t.Error("offline GOSHD found no hang in the capture of hung vm1")
	}
}

// TestAnalyzeBundle runs the analyzer on a detection bundle from a captured
// fleet campaign, and pins the acceptance property of the one replay path:
// bundle replay (ReplayIncidentStream), raw-stream replay (hypertap-capture
// replay) and the analyzer's offline GOSHD — on the bundle and on its
// capture.htcs alone — report the same per-VM verdicts.
func TestAnalyzeBundle(t *testing.T) {
	cfg := experiment.FleetConfig{
		Hosts:       1,
		VMsPerHost:  3,
		Duration:    200 * time.Millisecond,
		Threshold:   50 * time.Millisecond,
		Seed:        11,
		Parallel:    1,
		IncidentDir: t.TempDir(),
		Capture:     true,
		ExtraAuditors: func(unit int, h *host.Host) error {
			return hangWrites(h, 1)
		},
	}
	if _, err := experiment.RunFleetCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(cfg.IncidentDir, "unit-000", "incident-000-detection")
	rep, err := experiment.ReplayIncidentStream(cfg, bundle)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VMs[1].Alarms == 0 {
		t.Fatal("bundle replay found no hang in vm1; the comparison is vacuous")
	}
	f, err := os.Open(filepath.Join(bundle, "capture.htcs"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := experiment.ReplayStream(f, experiment.StreamReplayConfig{Threshold: cfg.Threshold})
	if err != nil {
		t.Fatal(err)
	}
	want := replayLines(rep)
	if got := replayLines(raw); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("raw-stream replay verdicts\n%s\nwant the bundle replay's\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	chrome := filepath.Join(t.TempDir(), "bundle.json")
	bundleOut := analyze(t, "-threshold", "50ms", "-chrome-trace", chrome, bundle)
	rawOut := analyze(t, "-threshold", "50ms", filepath.Join(bundle, "capture.htcs"))
	for _, want := range []string{"bundle " + bundle + ": kind detection", "events by type:"} {
		if !strings.Contains(bundleOut, want) {
			t.Errorf("bundle output lacks %q:\n%s", want, bundleOut)
		}
	}
	for _, out := range []string{bundleOut, rawOut} {
		if !strings.Contains(out, "offline GOSHD (threshold 50ms):") {
			t.Errorf("output lacks the offline GOSHD line:\n%s", out)
		}
		for _, line := range want {
			if !strings.Contains(out, line) {
				t.Errorf("output lacks replay verdict %q:\n%s", line, out)
			}
		}
	}
	if tracks := chromeTracks(t, chrome); len(tracks) == 0 {
		t.Error("bundle chrome trace names no tracks")
	}
}

// TestSummarizeSparseVMIDs pins the per-VM tally against a cluster-era (v2)
// stream, whose VMIDs start at the host's base instead of zero: a tally
// indexed by VMID drops every event here.
func TestSummarizeSparseVMIDs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "capture", "testdata", "corpus", "cluster-sparse.bin"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := summarize(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events == 0 || s.Cut != nil || !s.Ended {
		t.Fatalf("summary = %+v, want a clean, non-empty stream", s)
	}
	var sum int64
	for _, vm := range s.VMs {
		if vm.ID == 0 {
			t.Errorf("VM %s sits at VMID 0; the corpus stream is not sparse", vm.Name)
		}
		if vm.Events == 0 {
			t.Errorf("VM %s (vmid %d) tallied no events", vm.Name, vm.ID)
		}
		sum += vm.Events
	}
	if sum != s.Events {
		t.Fatalf("per-VM tallies sum to %d, stream holds %d event records", sum, s.Events)
	}
}
