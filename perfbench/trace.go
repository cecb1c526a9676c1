package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
)

// tracer records spans around the benchmark's calls into the program. It is
// single-threaded on purpose: every span it sees comes from the one goroutine
// that steps the cluster or drives the replay (async auditors are drained by
// the EM's Dispatch inside a round, on the same goroutine).
//
// Spans are aggregated per name as they close (count, busy time, self time),
// and the first maxRawSpans are also kept verbatim so they can be written out
// when the run ends. Self time is a span's duration minus the time covered
// by its direct children; children never overlap because the stack is
// strictly nested.
type tracer struct {
	base  time.Time
	req   uint32
	open  []openSpan
	agg   map[string]*spanAgg
	names []string
	aggs  []*spanAgg // by interned ID
	ids   map[string]uint16
	raw   []rawSpan
}

const maxRawSpans = 200_000

type openSpan struct {
	name  uint16
	raw   int32
	start int64
	child int64
}

// rawSpan is one closed span as written to the span file.
type rawSpan struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    uint32 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg is the running per-name total. Events counts the work items the
// spans covered where that differs from the span count (batched delivery).
type spanAgg struct {
	Count  uint64
	Events uint64
	Busy   time.Duration
	Self   time.Duration
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), agg: map[string]*spanAgg{}, ids: map[string]uint16{}}
}

// id interns a span name; decorators resolve theirs once at construction.
func (t *tracer) id(name string) uint16 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	a := &spanAgg{}
	t.names = append(t.names, name)
	t.aggs = append(t.aggs, a)
	t.ids[name] = id
	t.agg[name] = a
	return id
}

// setRequest stamps the spans that follow with a request ID (a cluster round
// or a replay pass).
func (t *tracer) setRequest(id uint32) { t.req = id }

func (t *tracer) begin(name uint16) {
	s := openSpan{name: name, raw: -1, start: int64(time.Since(t.base))}
	if len(t.raw) < maxRawSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].raw
		}
		s.raw = int32(len(t.raw))
		t.raw = append(t.raw, rawSpan{Name: t.names[name], ID: s.raw, Parent: parent, Req: t.req, Start: s.start})
	}
	t.open = append(t.open, s)
}

func (t *tracer) end() {
	now := int64(time.Since(t.base))
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	dur := now - s.start
	a := t.aggs[s.name]
	a.Count++
	a.Busy += time.Duration(dur)
	a.Self += time.Duration(dur - s.child)
	if n > 0 {
		t.open[n-1].child += dur
	}
	if s.raw >= 0 {
		t.raw[s.raw].End = now
	}
}

// span runs fn as one span named name; on a nil tracer it just runs fn.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(t.id(name))
	fn()
	t.end()
}

// get returns the aggregate for name (zero when the span never ran).
func (t *tracer) get(name string) spanAgg {
	if a, ok := t.agg[name]; ok {
		return *a
	}
	return spanAgg{}
}

// writeFile stores the raw spans and the per-name totals as JSON.
func (t *tracer) writeFile(path string) error {
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	type total struct {
		Name  string  `json:"name"`
		Count uint64  `json:"count"`
		BusyS float64 `json:"busy_s"`
		SelfS float64 `json:"self_s"`
	}
	out := struct {
		Totals []total   `json:"totals"`
		Spans  []rawSpan `json:"spans"`
	}{Spans: t.raw}
	for _, n := range names {
		a := t.agg[n]
		out.Totals = append(out.Totals, total{n, a.Count, a.Busy.Seconds(), a.Self.Seconds()})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAuditor wraps an auditor so each delivery is one span named
// "auditor.<name>". It forwards Name (the EM keys flight-recorder actor IDs
// on it), Mask and VMScope, so the EM routes to the wrapper exactly as it
// would to the auditor itself.
type tracedAuditor struct {
	inner core.Auditor
	t     *tracer
	id    uint16
	agg   *spanAgg
}

func (a *tracedAuditor) Name() string         { return a.inner.Name() }
func (a *tracedAuditor) Mask() core.EventMask { return a.inner.Mask() }

// VMScope forwards the inner auditor's scope; an auditor that declares none
// is fleet-wide, which is what RegisterAuditor would have chosen for it.
func (a *tracedAuditor) VMScope() core.VMScope {
	if s, ok := a.inner.(core.VMScoped); ok {
		return s.VMScope()
	}
	return core.ScopeFleet()
}

func (a *tracedAuditor) HandleEvent(ev *core.Event) {
	a.agg.Events++
	a.t.begin(a.id)
	a.inner.HandleEvent(ev)
	a.t.end()
}

// tracedBatchAuditor adds HandleBatch for inner auditors that have it, so
// the wrapper keeps the EM's batched delivery path exactly when the auditor
// itself would get it.
type tracedBatchAuditor struct {
	*tracedAuditor
	batch core.BatchAuditor
}

func (a *tracedBatchAuditor) HandleBatch(evs []core.Event) {
	a.agg.Events += uint64(len(evs))
	a.t.begin(a.id)
	a.batch.HandleBatch(evs)
	a.t.end()
}

// traceAuditor wraps a for t, or returns it unchanged when t is nil.
func traceAuditor(t *tracer, a core.Auditor) core.Auditor {
	if t == nil {
		return a
	}
	name := "auditor." + a.Name()
	ta := &tracedAuditor{inner: a, t: t, id: t.id(name), agg: t.agg[name]}
	if ba, ok := a.(core.BatchAuditor); ok {
		return &tracedBatchAuditor{tracedAuditor: ta, batch: ba}
	}
	return ta
}

// tracedTap wraps the capture recorder's exit-stream tap: each tap call is
// one "capture.tap" span and one record.
type tracedTap struct {
	inner core.ExitStreamTap
	t     *tracer
	id    uint16
}

func (p *tracedTap) TapEvent(ev *core.Event) {
	p.t.begin(p.id)
	p.inner.TapEvent(ev)
	p.t.end()
}

func (p *tracedTap) TapTick(vm core.VMID, now time.Duration) {
	p.t.begin(p.id)
	p.inner.TapTick(vm, now)
	p.t.end()
}

func (p *tracedTap) TapBarrier(now time.Duration) {
	p.t.begin(p.id)
	p.inner.TapBarrier(now)
	p.t.end()
}

// tracedView wraps a guest view: every read is one "view" span. NumVCPUs is
// static and pause/resume are commands, so they pass through untimed.
type tracedView struct {
	inner core.GuestView
	t     *tracer
	id    uint16
}

// traceView wraps v for t, or returns it unchanged when t is nil.
func traceView(t *tracer, v core.GuestView) core.GuestView {
	if t == nil {
		return v
	}
	return &tracedView{inner: v, t: t, id: t.id("view")}
}

func (v *tracedView) enter() { v.t.begin(v.id) }

func (v *tracedView) NumVCPUs() int { return v.inner.NumVCPUs() }

func (v *tracedView) Regs(vcpu int) arch.RegisterFile {
	v.enter()
	defer v.t.end()
	return v.inner.Regs(vcpu)
}

func (v *tracedView) ReadGPA(gpa arch.GPA, buf []byte) error {
	v.enter()
	defer v.t.end()
	return v.inner.ReadGPA(gpa, buf)
}

func (v *tracedView) ReadU64GPA(gpa arch.GPA) (uint64, error) {
	v.enter()
	defer v.t.end()
	return v.inner.ReadU64GPA(gpa)
}

func (v *tracedView) ReadU32GPA(gpa arch.GPA) (uint32, error) {
	v.enter()
	defer v.t.end()
	return v.inner.ReadU32GPA(gpa)
}

func (v *tracedView) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	v.enter()
	defer v.t.end()
	return v.inner.TranslateGVA(cr3, gva)
}

func (v *tracedView) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	v.enter()
	defer v.t.end()
	return v.inner.ReadU64GVA(cr3, gva)
}

func (v *tracedView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	v.enter()
	defer v.t.end()
	return v.inner.ReadU32GVA(cr3, gva)
}

func (v *tracedView) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	v.enter()
	defer v.t.end()
	return v.inner.ReadCStringGVA(cr3, gva, max)
}

func (v *tracedView) Now() time.Duration {
	v.enter()
	defer v.t.end()
	return v.inner.Now()
}

func (v *tracedView) PauseVM()  { v.inner.PauseVM() }
func (v *tracedView) ResumeVM() { v.inner.ResumeVM() }

func (v *tracedView) Paused() bool {
	v.enter()
	defer v.t.end()
	return v.inner.Paused()
}
