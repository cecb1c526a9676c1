// Command perfbench is HyperTap's end-to-end benchmark. One command runs one
// of three workloads from a seed, checks the simulated outputs against
// stored reference digests, and prints every metric by name with its unit:
//
//	perfbench --workload live-cluster --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// traced (spans around every call into the program, a CPU profile, the
// telemetry registry) and prints the per-layer metrics instead. The last
// line of standard output is one JSON object; a human-readable report goes
// to standard error. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"hypertap/internal/telemetry"
)

// episode is one repetition of a workload's unit of work, built from the
// same inputs every time, so its output check must pass every time. Every
// duration but wall is process CPU time (see processCPU).
type episode struct {
	setup  time.Duration   // set-up before the first measured call
	warmup time.Duration   // warm-up excluded from the measurement
	calls  []time.Duration // each measured call
	cpu    time.Duration   // the measured phase
	wall   time.Duration   // the measured phase on the wall clock, for the report
	events uint64          // audited events published in the measured phase
	units  int             // units of work completed in the measured phase
	check  error           // output check failure, nil when correct
}

// runCtx carries what an episode needs beyond its inputs. Traced runs set
// tr, tel and layers; -regen sets regen.
type runCtx struct {
	tr     *tracer
	tel    *telemetry.Registry
	layers *layers
	regen  *references
}

// workloadRunner is one benchmark workload.
type workloadRunner interface {
	// prepare runs once per process before any episode, untimed.
	prepare(rc *runCtx) error
	// episode runs one repetition.
	episode(rc *runCtx) (episode, error)
}

var workloadNames = []string{"live-cluster", "goshd-campaign", "replay-audit"}

func newWorkload(name string, seed int64, refs *references) (workloadRunner, error) {
	v := variantOf(seed)
	switch name {
	case "live-cluster":
		return &liveWorkload{variant: v, refs: refs}, nil
	case "goshd-campaign":
		return &campaignWorkload{variant: v, refs: refs}, nil
	case "replay-audit":
		return &replayWorkload{variant: v, refs: refs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// stats accumulates episodes.
type stats struct {
	attempted, failed int
	setups, warmups   []time.Duration
	calls, tails      []time.Duration
	// eventRates and unitRates are each measured episode's throughput per
	// CPU second; cpuShares its CPU time over its wall time.
	eventRates, unitRates, cpuShares []float64
	forcedGCs                        int
	events                           uint64
	units                            int
	firstErr                         error
}

func (s *stats) add(ep episode) {
	s.attempted++
	if ep.check != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = ep.check
		}
	}
	s.setups = append(s.setups, ep.setup)
	if ep.warmup > 0 {
		s.warmups = append(s.warmups, ep.warmup)
	}
	s.calls = append(s.calls, ep.calls...)
	if ep.cpu > 0 {
		s.tails = append(s.tails, quantile(ep.calls, 0.99))
		s.eventRates = append(s.eventRates, float64(ep.events)/ep.cpu.Seconds())
		s.unitRates = append(s.unitRates, float64(ep.units)/ep.cpu.Seconds())
		s.cpuShares = append(s.cpuShares, ep.cpu.Seconds()/ep.wall.Seconds())
	}
	s.events += ep.events
	s.units += ep.units
}

// repeat runs episodes until d has passed and at least one call was
// measured (a replay's first pass is warm-up). Every episode starts from a
// collected heap: without that, one episode's leftovers are collected during
// the next one's measured calls, and set-up times split between runs whose
// allocations reuse resident pages and runs whose pages the runtime has
// meanwhile returned to the OS and must fault in again.
func repeat(w workloadRunner, rc *runCtx, d time.Duration) (*stats, error) {
	s := &stats{}
	deadline := time.Now().Add(d)
	for {
		runtime.GC()
		s.forcedGCs++
		ep, err := w.episode(rc)
		if err != nil {
			return nil, err
		}
		s.add(ep)
		if !time.Now().Before(deadline) && len(s.calls) > 0 {
			return s, nil
		}
	}
}

func (s *stats) eventsPerCPUSec() float64 { return median(s.eventRates) }

// endToEnd is the untraced run's metric set. Every time in it is process
// CPU time. Throughputs and the tail are medians of the episodes' own (an
// episode's tail is its 99th-percentile call; an episode of one call is its
// own tail), so a burst of outside load on a few episodes does not move the
// run's figures.
func endToEnd(s *stats) map[string]metric {
	return map[string]metric{
		"events_per_cpu_s": {s.eventsPerCPUSec(), "1/s"},
		"units_per_cpu_s":  {median(s.unitRates), "1/s"},
		"call_cpu_p50_ms":  {ms(quantile(s.calls, 0.50)), "ms"},
		"call_cpu_tail_ms": {ms(quantile(s.tails, 0.50)), "ms"},
		"setup_s":          {quantile(s.setups, 0.50).Seconds(), "s"},
		"peak_mem_mib":     {peakMemMiB(), "MiB"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// peakMemMiB is the process's peak resident set.
func peakMemMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func itoa(v int) string { return strconv.Itoa(v) }

func main() {
	var o options
	var traceFlag int
	var regen string
	flag.StringVar(&o.workload, "workload", "", "workload: live-cluster, goshd-campaign or replay-audit")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&regen, "regen", "", "recompute every reference digest into this file and exit")
	flag.Parse()
	o.trace = traceFlag != 0
	runtime.GOMAXPROCS(runtime.NumCPU())

	if regen != "" {
		if err := regenerate(regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and reports it.
func run(o options) (*output, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(o.workload, o.seed, refs)
	if err != nil {
		return nil, err
	}
	stamp(o)
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		rc := &runCtx{}
		if err := w.prepare(rc); err != nil {
			return nil, err
		}
		s, err := repeat(w, rc, d)
		if err != nil {
			return nil, err
		}
		m := endToEnd(s)
		reportRun(s, m)
		return finalize(s, m), nil
	}
	s, m, err := traced(w, o, d)
	if err != nil {
		return nil, err
	}
	return finalize(s, m), nil
}

func finalize(s *stats, m map[string]metric) *output {
	if s.firstErr != nil {
		fmt.Fprintf(os.Stderr, "OUTPUT CHECK FAILED (%d of %d): %v\n", s.failed, s.attempted, s.firstErr)
	}
	return &output{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// stamp writes the run's provenance to the report.
func stamp(o options) {
	fmt.Fprintf(os.Stderr, "perfbench workload=%s seed=%d variant=%d seconds=%g trace=%v\n",
		o.workload, o.seed, variantOf(o.seed), o.seconds, o.trace)
	fmt.Fprintf(os.Stderr, "commit=%s go=%s nproc=%d GOMAXPROCS=%d\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(os.Stderr, "cluster: %d hosts x %d VMs x %d vCPUs, %d MiB/VM, %d warm-up + %d measured rounds/episode\n",
		numHosts, vmsPerHost, vmVCPUs, vmMemBytes>>20, warmRounds, totalRounds-warmRounds)
	fmt.Fprintf(os.Stderr, "campaign: workloads %v, every %d-th site, non-preemptible, persistent, Parallel %d\n",
		campaignWorkloads, campaignSampleEvery, campaignParallel)
}

// commit names the source revision run.sh found, if any.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func reportRun(s *stats, m map[string]metric) {
	fmt.Fprintf(os.Stderr, "episodes=%d calls=%d events=%d units=%d failed_share=%g\n",
		s.attempted, len(s.calls), s.events, s.units, float64(s.failed)/float64(s.attempted))
	fmt.Fprintf(os.Stderr, "warmup_s=%.4f (CPU, median of %d, excluded)\n", quantile(s.warmups, 0.5).Seconds(), len(s.warmups))
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"episode events/cpu-s", s.eventRates}, {"episode CPU/wall", s.cpuShares}} {
		r := append([]float64(nil), q.xs...)
		sort.Float64s(r)
		if n := len(r); n > 0 {
			fmt.Fprintf(os.Stderr, "%s: min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g\n",
				q.name, r[0], r[n/4], r[n/2], r[3*n/4], r[n-1])
		}
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-14s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
