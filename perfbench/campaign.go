package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hypertap/internal/experiment"
	"hypertap/internal/hv"
	"hypertap/internal/inject"
	"hypertap/internal/telemetry"
)

// The goshd-campaign workload: the paper's Fig. 4/5 fault-injection
// experiment through experiment.RunGOSHDCampaign, over make -j2 and http,
// non-preemptible kernel, persistent faults, every campaignSampleEvery-th
// fault site, two runs in parallel. Each unit builds, boots and discards a
// fresh 64 MiB VM with only GOSHD armed. A call is one whole campaign.
var campaignWorkloads = []string{"make -j2", "http"}

const (
	campaignSampleEvery = 60
	campaignParallel    = 2
)

// campaignWorkload is goshd-campaign. Like live-cluster, successive episodes
// walk the input variants.
type campaignWorkload struct {
	variant  int
	refs     *references
	episodes int
}

func (w *campaignWorkload) prepare(*runCtx) error { return nil }

func (w *campaignWorkload) config(v int, reg *telemetry.Registry) experiment.GOSHDConfig {
	return experiment.GOSHDConfig{
		SampleEvery:  campaignSampleEvery,
		Workloads:    campaignWorkloads,
		Kernels:      []bool{false},
		Persistences: []inject.Persistence{inject.Persistent},
		Seed:         scenarioSeed(v),
		Parallel:     campaignParallel,
		Telemetry:    reg,
	}
}

func (w *campaignWorkload) episode(rc *runCtx) (episode, error) {
	var ep episode
	v := (w.variant + w.episodes) % variants
	w.episodes++
	// Set-up: the campaign's site enumeration, which boots nothing but
	// builds one throwaway VM of the campaign's memory size to read the fault
	// site table, done here through the same public calls.
	c0 := processCPU()
	m, err := hv.New(hv.Config{VCPUs: 1, MemBytes: 64 << 20})
	if err != nil {
		return ep, err
	}
	if len(m.Kernel().Sites()) == 0 {
		return ep, fmt.Errorf("no fault sites")
	}
	ep.setup = processCPU() - c0

	// The telemetry registry is the only public count of the events the
	// campaign's VMs publish, so it is armed on every episode, traced or not.
	reg := telemetry.NewRegistry()
	t0, c0 := time.Now(), processCPU()
	var res *experiment.GOSHDResult
	rc.tr.span("campaign.call", func() { res, err = experiment.RunGOSHDCampaign(w.config(v, reg)) })
	if err != nil {
		return ep, err
	}
	ep.cpu = processCPU() - c0
	ep.wall = time.Since(t0)
	ep.calls = []time.Duration{ep.cpu}
	ep.units = res.Runs
	snap := reg.Snapshot()
	ep.events = sumCounter(snap, "hypertap_events_published_total", false)

	out := campaignOutput(res, ep.events)
	ep.check = w.refs.checkCampaign(v, out)
	if rc.regen != nil {
		rc.regen.Campaign[itoa(v)] = digest(out)
		ep.check = nil
	}
	if rc.layers != nil {
		l := rc.layers
		l.add("campaign.units", float64(res.Runs))
		l.add("em.published", float64(ep.events))
		l.add("em.dropped", float64(sumCounter(snap, "hypertap_events_dropped_total", true)))
		l.add("hav.exits", float64(sumCounter(snap, "hypertap_vm_exits_total", true)))
		l.addTLB(snap)
	}
	return ep, nil
}

// campaignOutput renders the campaign's simulated outputs canonically: per
// cell the outcome counts and both latency lists, plus the published-event
// total.
func campaignOutput(res *experiment.GOSHDResult, events uint64) string {
	cells := make([]experiment.GOSHDCell, 0, len(res.Cells))
	for c := range res.Cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].String() < cells[j].String() })
	var b strings.Builder
	fmt.Fprintf(&b, "sites %d runs %d events %d\n", res.Sites, res.Runs, events)
	for _, c := range cells {
		cs := res.Cells[c]
		fmt.Fprintf(&b, "cell %s", c)
		for _, o := range inject.AllOutcomes() {
			fmt.Fprintf(&b, " %s=%d", o, cs.Counts[o])
		}
		fmt.Fprintf(&b, "\n first %v\n full %v\n", cs.FirstLatencies, cs.FullLatencies)
	}
	return b.String()
}

// sumCounter adds the counter series called name: every series when
// labeled is set, else only the unlabeled total.
func sumCounter(s telemetry.Snapshot, name string, labeled bool) uint64 {
	var n uint64
	for _, c := range s.Counters {
		if c.Name == name && (labeled || len(c.Labels) == 0) {
			n += c.Value
		}
	}
	return n
}
