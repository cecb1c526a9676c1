package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/auditors/ped"
	"hypertap/internal/capture"
	"hypertap/internal/cluster"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/hv"
	"hypertap/internal/malware"
	"hypertap/internal/telemetry"
	"hypertap/internal/vclock"
	"hypertap/internal/vmi"
	"hypertap/internal/workload"
)

// The cluster scenario shared by live-cluster (which times it) and
// replay-audit (which records it once and replays the streams): 2 hosts × 2
// VMs × 2 vCPUs stepped by Cluster.StepRound. Every VM runs a rotating
// workload.Suite mix plus sshd answering a probe; one VM per host carries a
// transient privilege-escalation attack and a DKOM rootkit. Every VM has
// GOSHD (async), HRKD (async) and HT-Ninja (sync), each reading the guest
// through the capture recorder's RecordingView; every host has fleetwatch,
// a capture recorder on its exit stream and the default flight recorder.
const (
	numHosts    = 2
	vmsPerHost  = 2
	vmVCPUs     = 2
	vmMemBytes  = 64 << 20
	suiteScale  = 1
	warmRounds  = 1000 // the first virtual second: warm-up, not measured
	totalRounds = 4000 // 4 virtual seconds per episode
	probeEvery  = 100 * time.Millisecond
	drainEvery  = 50 // rounds between sshd reply drains and suite rotation checks
	goshdThresh = 100 * time.Millisecond
	rootkitComm = "malware"
)

var allFeatures = intercept.Features{
	ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true,
	Syscalls: true, IO: true,
}

// variants is how many distinct inputs the seed selects between; a
// reference digest is stored for each.
const variants = 16

// variantOf maps any --seed onto one of the stored input variants.
func variantOf(seed int64) int {
	v := seed % variants
	if v < 0 {
		v += variants
	}
	return int(v)
}

// scenarioSeed is the guest-seed base of variant v.
func scenarioSeed(v int) int64 { return 1000 + 37*int64(v) }

// vmSide is what one VM's auditors read through: a live machine behind the
// recorder's wrappers, or the replay's stream-backed view, counter and clock.
type vmSide struct {
	id      core.VMID
	clock   *vclock.Clock
	vcpus   int
	view    core.GuestView
	counter hrkd.ProcessCounter
	sym     guest.Symbols
}

// vmAuditors is one VM's auditing plane.
type vmAuditors struct {
	id  core.VMID
	gos *goshd.Detector
	hr  *hrkd.Detector
	nin *ped.HTNinja
}

// hostAuditors is one host's auditing plane: per-VM auditors in VM order,
// then the host-wide fleetwatch accountant. The registration order is fixed
// so actor IDs, and with them flight rings, line up between live and replay.
type hostAuditors struct {
	vms []*vmAuditors
	fw  *fleetwatch.Accountant
}

// wireHost registers the auditing plane of one host on em. With t set,
// every auditor is wrapped for spans.
func wireHost(em *core.Multiplexer, sides []vmSide, t *tracer) (*hostAuditors, error) {
	ha := &hostAuditors{}
	for _, s := range sides {
		va := &vmAuditors{id: s.id}
		var err error
		if va.gos, err = goshd.New(goshd.Config{VM: s.id, Clock: s.clock, VCPUs: s.vcpus, Threshold: goshdThresh}); err != nil {
			return nil, err
		}
		if err := em.RegisterAuditor(traceAuditor(t, va.gos), core.DeliverAsync, 0); err != nil {
			return nil, err
		}
		intro := vmi.New(s.view, s.sym)
		if va.hr, err = hrkd.New(hrkd.Config{VM: s.id, View: s.view, Counter: s.counter, Intro: intro}); err != nil {
			return nil, err
		}
		if err := em.RegisterAuditor(traceAuditor(t, va.hr), core.DeliverAsync, 0); err != nil {
			return nil, err
		}
		if va.nin, err = ped.NewHTNinja(ped.HTNinjaConfig{Policy: ped.DefaultPolicy(), VM: s.id, View: s.view, Intro: intro}); err != nil {
			return nil, err
		}
		if err := em.RegisterAuditor(traceAuditor(t, va.nin), core.DeliverSync, 0); err != nil {
			return nil, err
		}
		ha.vms = append(ha.vms, va)
	}
	ha.fw = fleetwatch.New(fleetwatch.Config{VMName: em.VMName})
	if err := em.RegisterAuditor(traceAuditor(t, ha.fw), core.DeliverAsync, 1<<16); err != nil {
		return nil, err
	}
	for _, va := range ha.vms {
		va.gos.Start()
	}
	return ha, nil
}

// verdicts renders the auditing plane's outcome canonically. HRKD's
// cross-check runs here, after the recorder's end marker, exactly as the
// replay's matching epilogue pops it.
func (ha *hostAuditors) verdicts(w io.Writer) error {
	for _, va := range ha.vms {
		rep, err := va.hr.CrossCheck()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "vm %d goshd alarms %+v\n", va.id, va.gos.Alarms())
		fmt.Fprintf(w, "vm %d ht-ninja checks %d detections %+v\n", va.id, va.nin.Checks(), va.nin.Detections())
		fmt.Fprintf(w, "vm %d hrkd crosscheck %+v\n", va.id, *rep)
		fmt.Fprintf(w, "vm %d fleetwatch events %d\n", va.id, ha.fw.VMTotal(va.id))
	}
	fmt.Fprintf(w, "fleetwatch total %d storms %+v\n", ha.fw.Total(), ha.fw.Storms())
	return nil
}

// guestVM is the benchmark's own state for one live VM: its rotating
// suite, the probe's replies and, on the attacked VM, the attack log.
type guestVM struct {
	m        *hv.Machine
	slot     int // suite rotation position
	cur      *workload.Status
	finished int
	replies  int
	attacked bool
	attack   *malware.AttackLog
}

// liveCluster is one built, booted and wired cluster scenario.
type liveCluster struct {
	cl    *cluster.Cluster
	recs  []*capture.Recorder
	hosts []*hostAuditors
	vms   []*guestVM // host-major
	sym   guest.Symbols
	round int
	// attackAt and rootkitAt are the rounds the attacked VMs launch the
	// transient attack and load the rootkit.
	attackAt, rootkitAt int
}

// buildCluster constructs, boots and wires the scenario of variant v. Each
// host's capture stream goes to sinks[i]. With t set, cluster.New and Boot
// are spans and the auditors, taps and views are traced; tel, when set, is
// the cluster's telemetry rollup.
func buildCluster(v int, sinks []io.Writer, t *tracer, tel *telemetry.Registry) (*liveCluster, error) {
	base := scenarioSeed(v)
	specs := make([]cluster.HostSpec, numHosts)
	for i := range specs {
		name := fmt.Sprintf("h%d", i)
		vms := make([]host.VMSpec, vmsPerHost)
		for j := range vms {
			vms[j] = host.VMSpec{
				Name:  fmt.Sprintf("%s-vm%d", name, j),
				VCPUs: vmVCPUs, MemBytes: vmMemBytes,
				Guest:   guest.Config{Seed: base*100 + int64(10*i+j)},
				Monitor: true, Features: allFeatures,
			}
		}
		specs[i] = cluster.HostSpec{Name: name, VMs: vms}
	}
	lc := &liveCluster{
		// The attack and the rootkit land inside the measured seconds, at a
		// variant-dependent phase.
		attackAt:  1500 + 53*v,
		rootkitAt: 2200 + 41*v,
	}
	var err error
	t.span("cluster.new", func() { lc.cl, err = cluster.New(cluster.Config{Hosts: specs, Telemetry: tel}) })
	if err != nil {
		return nil, err
	}
	t.span("cluster.boot", func() { err = lc.cl.Boot() })
	if err != nil {
		return nil, err
	}
	// The recorders' headers carry the whole cluster's VM table (VMIDs are
	// cluster-global), as the cluster capture gate does.
	var table []capture.VMHeader
	for i := 0; i < numHosts; i++ {
		for _, m := range lc.cl.Host(i).Machines() {
			table = append(table, capture.VMHeader{ID: m.VMID(), Name: m.Name(), VCPUs: m.NumVCPUs()})
		}
	}
	// Tap and auditors attach after boot: guest symbols exist only once the
	// kernels are up, and the capture then holds exactly what the auditors saw.
	for i := 0; i < numHosts; i++ {
		h := lc.cl.Host(i)
		rec, err := capture.NewRecorder(sinks[i], capture.Header{Host: h.Name(), Tick: time.Millisecond, VMs: table})
		if err != nil {
			return nil, err
		}
		lc.recs = append(lc.recs, rec)
		var tap core.ExitStreamTap = rec
		if t != nil {
			tap = &tracedTap{inner: rec, t: t, id: t.id("capture.tap")}
		}
		h.SetExitTap(tap)
		var sides []vmSide
		for _, m := range h.Machines() {
			lc.sym = m.Kernel().Symbols()
			sides = append(sides, vmSide{
				id: m.VMID(), clock: m.Clock(), vcpus: m.NumVCPUs(),
				// The view span wraps the machine itself, so it times the
				// guest-memory read and not the recording of its result.
				view:    rec.View(traceView(t, m), m.VMID()),
				counter: rec.Counter(m.Engine(), m.VMID()),
				sym:     m.Kernel().Symbols(),
			})
		}
		ha, err := wireHost(h.EM(), sides, t)
		if err != nil {
			return nil, err
		}
		lc.hosts = append(lc.hosts, ha)
		for j, m := range h.Machines() {
			// Every variant starts the VMs at the same suite items, spread
			// evenly over the suite, so variants differ in guest seeds and
			// attack times but not in workload mix.
			g := &guestVM{m: m, slot: 3 * (i*vmsPerHost + j), attacked: j == i%vmsPerHost}
			if err := g.start(); err != nil {
				return nil, err
			}
			lc.vms = append(lc.vms, g)
		}
	}
	return lc, nil
}

// start launches the VM's services: sshd with its once-per-100ms probe, the
// first suite item and, on the attacked VM, the looping processes the
// rootkit will hide.
func (g *guestVM) start() error {
	k := g.m.Kernel()
	if _, err := k.CreateProcess(workload.SSHD(), nil); err != nil {
		return err
	}
	var seq uint64
	var ping func(now time.Duration)
	ping = func(now time.Duration) {
		seq++
		g.m.InjectNetRequest(workload.SSHDPort, seq)
		g.m.Clock().AfterFunc(probeEvery, ping)
	}
	g.m.Clock().AfterFunc(probeEvery, ping)
	if g.attacked {
		for i := 0; i < 2; i++ {
			if _, err := k.CreateProcess(&guest.ProcSpec{
				Comm: rootkitComm, UID: 0,
				Program: &guest.LoopProgram{Body: []guest.Step{
					guest.Compute(time.Millisecond),
					guest.DoSyscall(guest.SysWrite, 1, 128),
					guest.Sleep(3 * time.Millisecond),
				}},
			}, nil); err != nil {
				return err
			}
		}
	}
	return g.next()
}

// next launches the next item of the suite rotation.
func (g *guestVM) next() error {
	suite := workload.Suite(suiteScale)
	spec := suite[g.slot%len(suite)]
	g.slot++
	st, err := workload.Launch(g.m, spec)
	if err != nil {
		return err
	}
	g.cur = st
	return nil
}

// between runs the benchmark's own bookkeeping at a round boundary, where
// every machine is quiescent: the scheduled attack and rootkit launches,
// and every drainEvery rounds the probe replies and suite rotation.
func (lc *liveCluster) between() error {
	lc.round++
	if lc.round == lc.attackAt || lc.round == lc.rootkitAt {
		for _, g := range lc.vms {
			if !g.attacked {
				continue
			}
			if lc.round == lc.attackAt {
				if err := g.launchAttack(); err != nil {
					return err
				}
			} else if err := g.launchRootkit(); err != nil {
				return err
			}
		}
	}
	if lc.round%drainEvery != 0 {
		return nil
	}
	for _, g := range lc.vms {
		g.replies += len(g.m.Kernel().DrainNetReplies())
		if g.cur.Done() {
			g.finished++
			if err := g.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

// launchAttack spawns the transient attack from an unprivileged login
// shell, as the paper's attacks run from a user's terminal.
func (g *guestVM) launchAttack() error {
	k := g.m.Kernel()
	shell, err := k.CreateProcess(&guest.ProcSpec{
		Comm: "bash", UID: 1000,
		Program: &guest.LoopProgram{Body: []guest.Step{guest.Sleep(time.Second)}},
	}, nil)
	if err != nil {
		return err
	}
	g.attack = &malware.AttackLog{}
	_, err = k.CreateProcess((&malware.TransientAttack{Log: g.attack}).Spec("attack"), shell)
	return err
}

// launchRootkit has root load a DKOM rootkit hiding the looping processes.
func (g *guestVM) launchRootkit() error {
	rk := (malware.CatalogEntry{Name: "SucKIT", Profile: guest.ProfileLinux26,
		Techniques: malware.TechKmem | malware.TechDKOM}).Build(rootkitComm)
	_, err := g.m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "dropper", UID: 0, Program: guest.NewStepList(guest.LoadModule(rk)),
	}, nil)
	return err
}

// published sums the events every host's EM has published.
func (lc *liveCluster) published() uint64 {
	var n uint64
	for i := 0; i < numHosts; i++ {
		n += lc.cl.Host(i).EM().Published()
	}
	return n
}

// finish ends every capture stream, runs the verdict epilogue and renders
// the scenario's simulated outputs: the verdicts (which a replay of the
// streams must reproduce) and the full output, which adds the guest, exit
// and event statistics and the stream lengths.
func (lc *liveCluster) finish(streamBytes func(i int) int64) (verdicts, full string, err error) {
	for _, rec := range lc.recs {
		if err := rec.Finish(); err != nil {
			return "", "", err
		}
	}
	var vb strings.Builder
	for _, ha := range lc.hosts {
		if err := ha.verdicts(&vb); err != nil {
			return "", "", err
		}
	}
	for _, rec := range lc.recs {
		if err := rec.Flush(); err != nil {
			return "", "", err
		}
	}
	var fb strings.Builder
	fb.WriteString(vb.String())
	for i := 0; i < numHosts; i++ {
		h := lc.cl.Host(i)
		fmt.Fprintf(&fb, "host %s capture bytes %d\n", h.Name(), streamBytes(i))
		for _, m := range h.Machines() {
			fmt.Fprintf(&fb, "vm %d published %d exits %d decoded %s kernel %+v\n",
				m.VMID(), h.EM().PublishedVM(m.VMID()), m.TotalExits(),
				sortedCounts(m.Engine().Stats().Decoded), m.Kernel().Stats())
		}
	}
	for _, g := range lc.vms {
		acted := g.attack != nil && g.attack.Acted()
		fmt.Fprintf(&fb, "vm %d suite finished %d sshd replies %d attack acted %v\n",
			g.m.VMID(), g.finished, g.replies, acted)
	}
	return vb.String(), fb.String(), nil
}
