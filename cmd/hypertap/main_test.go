package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/flight"
)

// TestSmokeDefaults drives the binary in-process with a short run and the
// documented flag defaults: flight recording on (-flight-depth 0 = 1024-deep
// rings), a bundle drained at exit, and an exit-stream capture alongside it.
func TestSmokeDefaults(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-duration", "100ms",
		"-vms", "2",
		"-tail", "0",
		"-telemetry-addr", "127.0.0.1:0",
		"-rhc",
		"-capture", filepath.Join(dir, "run.htcs"),
		"-flight-dir", filepath.Join(dir, "flight"),
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}

	// The exit drain lands as a standard bundle: loadable, populated, and
	// carrying the RHC's per-VM heartbeat view.
	b, err := flight.LoadBundle(filepath.Join(dir, "flight", "incident-000-shutdown"))
	if err != nil {
		t.Fatalf("loading shutdown bundle: %v", err)
	}
	if b.Meta.Kind != "shutdown" || b.Meta.Error != "" {
		t.Fatalf("bundle meta = kind %q error %q, want clean shutdown", b.Meta.Kind, b.Meta.Error)
	}
	if len(b.Exits) != 2 {
		t.Fatalf("bundle has %d VM rings, want 2", len(b.Exits))
	}
	for vm, exits := range b.Exits {
		if len(exits) == 0 {
			t.Errorf("VM %d ring is empty", vm)
		}
	}
	if len(b.Spans) == 0 {
		t.Error("bundle carries no spans")
	}
	if b.RHC == nil || len(b.RHC.Beats) != 2 {
		t.Errorf("bundle RHC state = %+v, want beats from both VMs", b.RHC)
	}
	if b.Telemetry == nil {
		t.Error("bundle is missing the telemetry snapshot")
	}

	// The capture decodes as a whole: both VMs' events, then the end marker.
	f, err := os.Open(filepath.Join(dir, "run.htcs"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := capture.NewReader(f)
	if err != nil {
		t.Fatalf("capture header: %v", err)
	}
	if n := len(rd.Header().VMs); n != 2 {
		t.Fatalf("capture header lists %d VMs, want 2", n)
	}
	events := map[core.VMID]int{}
	ended := false
	var rec capture.Record
	for {
		err := rd.Next(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("capture record: %v", err)
		}
		switch capture.KindName(rec.Kind) {
		case "event":
			events[rec.Event.VM]++
		case "end":
			ended = true
		}
	}
	for _, vm := range rd.Header().VMs {
		if events[vm.ID] == 0 {
			t.Errorf("capture holds no events for %s", vm.Name)
		}
	}
	if !ended {
		t.Error("capture has no end marker")
	}
}

// TestSmokeCluster drives the -hosts>1 demo path with a mid-run migration,
// and pins that the single-host-only flags are rejected in cluster mode.
func TestSmokeCluster(t *testing.T) {
	args := []string{
		"-duration", "60ms",
		"-hosts", "2",
		"-vms", "1",
		"-migrate-at", "30ms",
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	err := run([]string{"-hosts", "2", "-rhc"})
	if err == nil || !strings.Contains(err.Error(), "single-host") {
		t.Fatalf("cluster mode with -rhc: err = %v, want single-host flag complaint", err)
	}
}

// TestSmokeFlightDisabled pins the -flight-depth<0 escape hatch: tracing off,
// and asking for a drain anyway is a configuration error.
func TestSmokeFlightDisabled(t *testing.T) {
	if err := run([]string{"-duration", "20ms", "-flight-depth", "-1", "-tail", "0"}); err != nil {
		t.Fatalf("run with tracing disabled: %v", err)
	}
	err := run([]string{"-duration", "20ms", "-flight-depth", "-1", "-flight-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-flight-depth") {
		t.Fatalf("contradictory flags: err = %v, want -flight-depth complaint", err)
	}
}
