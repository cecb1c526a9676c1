package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/hv"
	"hypertap/internal/telemetry"
)

// layerUnits is every per-layer metric a traced run prints, with its unit.
// A metric that does not apply to a workload reads 0 there.
var layerUnits = map[string]string{
	"hv.new_ms": "ms", "hv.boot_ms": "ms", "cluster.new_s": "s", "cluster.boot_s": "s",
	"guest.syscalls": "count", "guest.context_switches": "count",
	"guest.tlb_hit_ratio":   "ratio",
	"alloc.bytes_per_event": "B/event", "alloc.objects_per_event": "objects/event",
	"hav.exits": "count", "intercept.decoded": "count",
	"em.published": "count", "em.sync_delivered": "count", "em.async_delivered": "count",
	"em.dropped": "count", "flight.recorded": "count", "flight.overwritten": "count",
	"view.reads": "count", "view.busy_s": "s",
	"capture.tap.records": "count", "capture.tap.busy_s": "s", "capture.tap.bytes": "B",
	"capture.decode.records": "count", "capture.decode.busy_s": "s", "capture.decode.bytes": "B",
	"cluster.round.count": "count", "cluster.round.busy_s": "s", "cluster.round.self_s": "s",
	"replay.pass.count": "count", "replay.pass.busy_s": "s", "replay.pass.self_s": "s",
	"campaign.units": "count", "cpu.utilization": "ratio", "gc.cycles": "count",
	"warmup_s": "s", "traced.wall_s": "s",
	"trace.events_per_cpu_s_untraced": "1/s", "trace.events_per_cpu_s_traced": "1/s", "trace.overhead": "ratio",
}

// tracedAuditors are the auditors whose spans are reported.
var tracedAuditors = []string{"goshd", "hrkd", "ht-ninja", "fleetwatch"}

func init() {
	for _, a := range tracedAuditors {
		layerUnits["auditor."+a+".events"] = "count"
		layerUnits["auditor."+a+".busy_s"] = "s"
	}
	for _, b := range cpuBuckets {
		layerUnits["cpu."+b] = "ratio"
	}
}

// layers accumulates per-layer values over a traced run; the TLB totals
// become guest.tlb_hit_ratio at the end.
type layers struct {
	v                   map[string]float64
	tlbHits, tlbLookups float64
}

func newLayers() *layers { return &layers{v: map[string]float64{}} }

func (l *layers) add(name string, x float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	l.v[name] += x
}

func (l *layers) set(name string, x float64) {
	l.add(name, 0)
	l.v[name] = x
}

// addTLB adds the guest translation-cache counters of a telemetry snapshot.
func (l *layers) addTLB(snap telemetry.Snapshot) {
	hits := float64(sumCounter(snap, "hypertap_tlb_hit_total", true))
	l.tlbHits += hits
	l.tlbLookups += hits + float64(sumCounter(snap, "hypertap_tlb_miss_total", true))
}

// metrics renders every listed layer metric.
func (l *layers) metrics() map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{l.v[name], unit}
	}
	return out
}

// collectEM adds one EM's delivery and flight-recorder counters.
func collectEM(l *layers, em *core.Multiplexer, vms []core.VMID) {
	l.add("em.published", float64(em.Published()))
	l.add("em.sync_delivered", float64(em.SyncDelivered()))
	for _, s := range em.Stats() {
		if s.Mode == core.DeliverAsync {
			l.add("em.async_delivered", float64(s.Delivered))
		}
		l.add("em.dropped", float64(s.Dropped))
	}
	for _, vm := range vms {
		rec := em.FlightRecorded(vm)
		l.add("flight.recorded", float64(rec))
		if kept := uint64(len(em.FlightExits(vm))); rec > kept {
			l.add("flight.overwritten", float64(rec-kept))
		}
	}
}

// collect adds a finished live cluster's counters, and folds its hosts'
// telemetry into the run's registry.
func (lc *liveCluster) collect(l *layers) {
	lc.cl.Rollup()
	for i := 0; i < numHosts; i++ {
		h := lc.cl.Host(i)
		var ids []core.VMID
		for _, m := range h.Machines() {
			ids = append(ids, m.VMID())
			st := m.Kernel().Stats()
			l.add("guest.syscalls", float64(st.Syscalls))
			l.add("guest.context_switches", float64(st.ContextSwitches))
			l.add("hav.exits", float64(m.TotalExits()))
			for _, n := range m.Engine().Stats().Decoded {
				l.add("intercept.decoded", float64(n))
			}
		}
		collectEM(l, h.EM(), ids)
	}
}

// traced is a --trace 1 run. It first measures untraced for a third of d
// (the base of the tracing-overhead figure), then runs the rest traced:
// spans around every call into the program, the telemetry registry armed,
// and a CPU profile. Probes time hv.New and Boot at the campaign's VM shape.
func traced(w workloadRunner, o options, d time.Duration) (*stats, map[string]metric, error) {
	plain := &runCtx{}
	if err := w.prepare(plain); err != nil {
		return nil, nil, err
	}
	base, err := repeat(w, plain, d/3)
	if err != nil {
		return nil, nil, err
	}

	rc := &runCtx{tr: newTracer(), tel: telemetry.NewRegistry(), layers: newLayers()}
	l := rc.layers
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	s, err := repeat(w, rc, d-d/3)
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&after)
	s.attempted += base.attempted
	s.failed += base.failed
	if s.firstErr == nil {
		s.firstErr = base.firstErr
	}

	shares, cpuSec, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for b, x := range shares {
		l.set("cpu."+b, x)
	}
	l.set("cpu.utilization", cpuSec/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	l.set("traced.wall_s", wall.Seconds())
	published := l.v["em.published"]
	if published > 0 {
		l.set("alloc.bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/published)
		l.set("alloc.objects_per_event", float64(after.Mallocs-before.Mallocs)/published)
	}
	l.set("gc.cycles", float64(int(after.NumGC-before.NumGC)-s.forcedGCs))
	l.addTLB(rc.tel.Snapshot())
	if l.tlbLookups > 0 {
		l.set("guest.tlb_hit_ratio", l.tlbHits/l.tlbLookups)
	}
	l.set("warmup_s", quantile(append(base.warmups, s.warmups...), 0.5).Seconds())
	l.set("trace.events_per_cpu_s_untraced", base.eventsPerCPUSec())
	l.set("trace.events_per_cpu_s_traced", s.eventsPerCPUSec())
	if te := s.eventsPerCPUSec(); te > 0 {
		l.set("trace.overhead", base.eventsPerCPUSec()/te-1)
	}

	tr := rc.tr
	for _, a := range tracedAuditors {
		g := tr.get("auditor." + a)
		l.set("auditor."+a+".events", float64(g.Events))
		l.set("auditor."+a+".busy_s", g.Busy.Seconds())
	}
	for name, prefix := range map[string]string{
		"view": "view", "capture.tap": "capture.tap", "capture.decode": "capture.decode",
	} {
		g := tr.get(name)
		l.set(prefix+".busy_s", g.Busy.Seconds())
		if name == "view" {
			l.set("view.reads", float64(g.Count))
		}
		if name == "capture.tap" {
			l.set("capture.tap.records", float64(g.Count))
		}
	}
	for _, name := range []string{"cluster.round", "replay.pass"} {
		g := tr.get(name)
		l.set(name+".count", float64(g.Count))
		l.set(name+".busy_s", g.Busy.Seconds())
		l.set(name+".self_s", g.Self.Seconds())
	}
	if g := tr.get("cluster.new"); g.Count > 0 {
		l.set("cluster.new_s", g.Busy.Seconds()/float64(g.Count))
	}
	if g := tr.get("cluster.boot"); g.Count > 0 {
		l.set("cluster.boot_s", g.Busy.Seconds()/float64(g.Count))
	}
	newMs, bootMs, err := probeVM(5)
	if err != nil {
		return nil, nil, err
	}
	l.set("hv.new_ms", newMs)
	l.set("hv.boot_ms", bootMs)

	reportTrace(o, tr, l)
	return s, l.metrics(), nil
}

// probeVM times hv.New and Machine.Boot at the campaign's VM shape (2
// vCPUs, 64 MiB), n times each, and returns the medians in milliseconds.
func probeVM(n int) (newMs, bootMs float64, err error) {
	var news, boots []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		m, err := hv.New(hv.Config{VCPUs: 2, MemBytes: 64 << 20})
		if err != nil {
			return 0, 0, err
		}
		news = append(news, time.Since(t0))
		t0 = time.Now()
		if err := m.Boot(); err != nil {
			return 0, 0, err
		}
		boots = append(boots, time.Since(t0))
	}
	return ms(quantile(news, 0.5)), ms(quantile(boots, 0.5)), nil
}

// reportTrace prints the span self-time breakdown and the layer table, and
// writes the spans to .bench_build.
func reportTrace(o options, tr *tracer, l *layers) {
	names := make([]string, 0, len(tr.agg))
	for n := range tr.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-22s %10s %12s %10s %10s\n", "span", "count", "events", "busy_s", "self_s")
	for _, n := range names {
		a := tr.agg[n]
		fmt.Fprintf(os.Stderr, "%-22s %10d %12d %10.4f %10.4f\n", n, a.Count, a.Events, a.Busy.Seconds(), a.Self.Seconds())
	}
	keys := make([]string, 0, len(layerUnits))
	for k := range layerUnits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-30s %16.6g %s\n", k, l.v[k], layerUnits[k])
	}
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if err := tr.writeFile(path); err == nil {
			fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
		}
	}
}
