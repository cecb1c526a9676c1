package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/core"
	"hypertap/internal/vclock"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmitted runs each workload once untraced and once traced,
// at the smallest run length (one episode), and checks the output check
// passes and that every metric BENCHMARK.json names is printed with its
// unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			if trace && testing.Short() && wl.Name == "goshd-campaign" {
				continue
			}
			out, err := run(options{workload: wl.Name, seed: 1, seconds: 0.001, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", wl.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptReferenceRejected flips one digit of each stored digest of a
// variant and checks that both the live run and the replay of its streams
// then fail their output checks.
func TestCorruptReferenceRejected(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	const v = 2
	key := strconv.Itoa(v)
	flip := func(s string) string {
		b := []byte(s)
		if b[0] == '0' {
			b[0] = '1'
		} else {
			b[0] = '0'
		}
		return string(b)
	}
	for _, field := range []string{"verdicts", "full"} {
		bad := &references{Cluster: map[string]clusterRef{}, Campaign: refs.Campaign}
		for k, r := range refs.Cluster {
			bad.Cluster[k] = r
		}
		r := bad.Cluster[key]
		if field == "verdicts" {
			r.Verdicts = flip(r.Verdicts)
		} else {
			r.Full = flip(r.Full)
		}
		bad.Cluster[key] = r
		for _, w := range []workloadRunner{&liveWorkload{variant: v, refs: bad}, &replayWorkload{variant: v, refs: bad}} {
			rc := &runCtx{}
			if err := w.prepare(rc); err != nil {
				t.Fatal(err)
			}
			s, err := repeat(w, rc, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != s.attempted {
				t.Errorf("%T with a corrupted %s digest: %d of %d episodes failed, want all", w, field, s.failed, s.attempted)
			}
		}
	}
	if err := refs.checkCampaign(v, "not the campaign's output"); err == nil {
		t.Error("checkCampaign accepted a wrong output")
	}
}

// TestDecoratorsForward checks the span wrappers keep what the EM routes on:
// the name, the scope, and HandleBatch exactly when the auditor has it.
func TestDecoratorsForward(t *testing.T) {
	tr := newTracer()
	det, err := goshd.New(goshd.Config{VM: 3, Clock: &vclock.Clock{}, VCPUs: 1, Threshold: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	wg := traceAuditor(tr, det)
	if wg.Name() != det.Name() || wg.Mask() != det.Mask() {
		t.Fatal("wrapper changed name or mask")
	}
	if s := wg.(core.VMScoped).VMScope(); s != det.VMScope() {
		t.Fatalf("wrapper scope %v, want %v", s, det.VMScope())
	}
	if _, ok := wg.(core.BatchAuditor); ok {
		t.Fatal("wrapper of a non-batch auditor offers HandleBatch")
	}
	fw := fleetwatch.New(fleetwatch.Config{})
	wf := traceAuditor(tr, fw)
	if _, ok := wf.(core.BatchAuditor); !ok {
		t.Fatal("wrapper of a batch auditor hides HandleBatch")
	}
	plain := &core.AuditorFunc{AuditorName: "plain", EventMask: core.MaskAll, Fn: func(*core.Event) {}}
	if s := traceAuditor(tr, plain).(core.VMScoped).VMScope(); !s.Fleet() {
		t.Fatalf("wrapper of an unscoped auditor has scope %v, want fleet", s)
	}
	wf.(core.BatchAuditor).HandleBatch(make([]core.Event, 3))
	if g := tr.get("auditor.fleetwatch"); g.Count != 1 || g.Events != 3 {
		t.Fatalf("batch span count %d events %d, want 1 and 3", g.Count, g.Events)
	}
}

// TestCPUShares decodes a real CPU profile and checks the buckets partition
// the samples.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	shares, sec, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Skip("no samples")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if bucketOf([]string{"runtime.memclrNoHeapPointers", "hypertap/internal/gmem.New"}) != "runtime.memclr" ||
		bucketOf([]string{"runtime.mallocgc", "hypertap/internal/guest.(*Kernel).buildOps"}) != "guest" ||
		bucketOf([]string{"hypertap/internal/auditors/hrkd.(*Detector).HandleEvent"}) != "auditors" ||
		bucketOf([]string{"hypertap/internal/core/intercept.(*Engine).HandleExit"}) != "intercept" ||
		bucketOf([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}) != "runtime.gc" {
		t.Fatal("bucketOf misfiled a stack")
	}
}
