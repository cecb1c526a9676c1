package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/experiment"
)

// TestReplayStreamHosted pins the CLI replay path (experiment.ReplayStream)
// against cluster-era (v2) captures: the auditor wiring must scope to the
// header's sparse VMIDs, not the table slots — a slot-indexed
// Clock/PublishedVM lookup panics or tallies zero events here.
func TestReplayStreamHosted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosted.htcs")
	data := capture.GenerateHosted(7, 2, 2, 400, time.Millisecond, "host1", 4)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := experiment.ReplayStream(f, experiment.StreamReplayConfig{Threshold: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host != "host1" {
		t.Errorf("report host = %q, want host1", rep.Host)
	}
	if rep.Events != 400 {
		t.Errorf("replayed %d events, want 400", rep.Events)
	}
	for _, vm := range rep.VMs {
		if vm.Events == 0 {
			t.Errorf("VM %s tallied 0 events — sparse VMID lost in the wiring", vm.Name)
		}
	}
	if rep.Divergences != 0 {
		t.Errorf("divergences = %d, want 0", rep.Divergences)
	}
}
