package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hypertap/internal/telemetry"
)

func TestMaskOfAndHas(t *testing.T) {
	m := MaskOf(EvSyscall, EvProcessSwitch)
	if !m.Has(EvSyscall) || !m.Has(EvProcessSwitch) {
		t.Fatal("mask missing selected types")
	}
	if m.Has(EvThreadSwitch) {
		t.Fatal("mask has unselected type")
	}
	for _, ty := range AllEventTypes() {
		if !MaskAll.Has(ty) {
			t.Fatalf("MaskAll missing %v", ty)
		}
	}
}

func TestMaskString(t *testing.T) {
	if s := MaskOf(EvSyscall).String(); s != "syscall" {
		t.Fatalf("mask string = %q", s)
	}
	if EventType(99).String() == "" {
		t.Fatal("unknown event type empty string")
	}
	for _, ty := range AllEventTypes() {
		if ty.String() == "" {
			t.Fatalf("event type %d empty string", ty)
		}
	}
}

func TestEventString(t *testing.T) {
	events := []Event{
		{Type: EvProcessSwitch, PDBA: 0x1000},
		{Type: EvThreadSwitch, RSP0: 0x8000},
		{Type: EvSyscall, SyscallNr: 4},
		{Type: EvHalt},
	}
	for _, ev := range events {
		if ev.String() == "" {
			t.Fatalf("empty String for %v", ev.Type)
		}
	}
}

func collector(name string, mask EventMask) (*AuditorFunc, *[]Event) {
	var got []Event
	a := &AuditorFunc{AuditorName: name, EventMask: mask, Fn: func(ev *Event) {
		got = append(got, *ev)
	}}
	return a, &got
}

func TestRegisterValidation(t *testing.T) {
	em := NewMultiplexer()
	if err := em.Register(nil, DeliverSync, 0); err == nil {
		t.Error("nil auditor accepted")
	}
	a, _ := collector("a", MaskAll)
	if err := em.Register(a, DeliveryMode(9), 0); err == nil {
		t.Error("bad mode accepted")
	}
	if err := em.Register(a, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(a, DeliverSync, 0); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestSyncDeliveryRespectsMask(t *testing.T) {
	em := NewMultiplexer()
	sysOnly, sysGot := collector("sys", MaskOf(EvSyscall))
	all, allGot := collector("all", MaskAll)
	if err := em.Register(sysOnly, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(all, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}

	em.Publish(&Event{Type: EvSyscall, SyscallNr: 3})
	em.Publish(&Event{Type: EvProcessSwitch, PDBA: 7})

	if len(*sysGot) != 1 || (*sysGot)[0].SyscallNr != 3 {
		t.Fatalf("sys auditor got %v", *sysGot)
	}
	if len(*allGot) != 2 {
		t.Fatalf("all auditor got %d events, want 2", len(*allGot))
	}
	stats := em.Stats()
	if stats[0].Delivered != 1 || stats[1].Delivered != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAsyncQueueAndDispatch(t *testing.T) {
	em := NewMultiplexer()
	a, got := collector("async", MaskAll)
	if err := em.Register(a, DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		em.Publish(&Event{Type: EvSyscall, SyscallNr: uint32(i)})
	}
	if len(*got) != 0 {
		t.Fatal("async events delivered before Dispatch")
	}
	if n := em.Dispatch(0); n != 5 {
		t.Fatalf("Dispatch delivered %d, want 5", n)
	}
	for i, ev := range *got {
		if ev.SyscallNr != uint32(i) {
			t.Fatalf("events out of order: %v", *got)
		}
	}
	if n := em.Dispatch(0); n != 0 {
		t.Fatalf("second Dispatch delivered %d, want 0", n)
	}
}

func TestAsyncDispatchBounded(t *testing.T) {
	em := NewMultiplexer()
	a, got := collector("async", MaskAll)
	if err := em.Register(a, DeliverAsync, 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		em.Publish(&Event{Type: EvHalt})
	}
	if n := em.Dispatch(3); n != 3 {
		t.Fatalf("bounded Dispatch = %d, want 3", n)
	}
	if len(*got) != 3 {
		t.Fatalf("delivered = %d, want 3", len(*got))
	}
}

func TestAsyncOverflowDrops(t *testing.T) {
	em := NewMultiplexer()
	a, _ := collector("slow", MaskAll)
	if err := em.Register(a, DeliverAsync, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	st := em.Stats()[0]
	if st.Queued != 4 || st.Dropped != 6 {
		t.Fatalf("queued/dropped = %d/%d, want 4/6", st.Queued, st.Dropped)
	}
}

func TestUnregister(t *testing.T) {
	em := NewMultiplexer()
	a, got := collector("a", MaskAll)
	if err := em.Register(a, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	if !em.Unregister(a) {
		t.Fatal("Unregister returned false")
	}
	if em.Unregister(a) {
		t.Fatal("double Unregister returned true")
	}
	em.Publish(&Event{Type: EvHalt})
	if len(*got) != 0 {
		t.Fatal("unregistered auditor received event")
	}
}

// TestUnregisterWithQueuedEvents exercises registration churn against the
// routing table: unregistering an async auditor with undispatched events
// must forget its queue in the depth accounting, and later publishes must
// route only to the survivors.
func TestUnregisterWithQueuedEvents(t *testing.T) {
	em := NewMultiplexer()
	reg := telemetry.NewRegistry()
	em.EnableTelemetry(reg)

	a, aGot := collector("a", MaskAll)
	b, bGot := collector("b", MaskAll)
	for _, aud := range []*AuditorFunc{a, b} {
		if err := em.Register(aud, DeliverAsync, 8); err != nil {
			t.Fatal(err)
		}
	}
	depth := func() float64 {
		t.Helper()
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "hypertap_async_queue_depth" {
				return g.Value
			}
		}
		t.Fatal("no hypertap_async_queue_depth gauge")
		return 0
	}

	for i := 0; i < 3; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	if d := depth(); d != 6 {
		t.Fatalf("depth after publishes = %v, want 6 (3 events x 2 queues)", d)
	}
	if !em.Unregister(a) {
		t.Fatal("Unregister returned false")
	}
	if d := depth(); d != 3 {
		t.Fatalf("depth after Unregister = %v, want 3 (a's queued events forgotten)", d)
	}
	if n := em.Dispatch(0); n != 3 {
		t.Fatalf("Dispatch delivered %d, want 3", n)
	}
	if len(*aGot) != 0 {
		t.Fatalf("unregistered auditor received %d events", len(*aGot))
	}
	if len(*bGot) != 3 {
		t.Fatalf("survivor received %d events, want 3", len(*bGot))
	}
	if d := depth(); d != 0 {
		t.Fatalf("depth after drain = %v, want 0", d)
	}

	// The rebuilt routing table must carry only the survivor.
	em.Publish(&Event{Type: EvHalt, Seq: 99})
	em.Dispatch(0)
	if len(*aGot) != 0 || len(*bGot) != 4 {
		t.Fatalf("post-churn routing delivered a=%d b=%d, want 0/4", len(*aGot), len(*bGot))
	}
}

// TestReRegisterAfterEnableTelemetry checks that an auditor registered
// after telemetry is enabled — including one that was unregistered and
// comes back — gets its latency histogram wired and is routed to.
func TestReRegisterAfterEnableTelemetry(t *testing.T) {
	em := NewMultiplexer()
	reg := telemetry.NewRegistry()

	busy := &AuditorFunc{AuditorName: "busy", EventMask: MaskAll, Fn: func(*Event) {
		time.Sleep(10 * time.Microsecond)
	}}
	if err := em.Register(busy, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	em.EnableTelemetry(reg)
	if !em.Unregister(busy) {
		t.Fatal("Unregister returned false")
	}
	if err := em.Register(busy, DeliverSync, 0); err != nil {
		t.Fatalf("re-Register: %v", err)
	}

	for i := 0; i < latencySampleEvery; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	var hist *telemetry.HistogramSnapshot
	snap := reg.Snapshot()
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "hypertap_auditor_handle_seconds" &&
			snap.Histograms[i].Labels[0] == telemetry.L("auditor", "busy") {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatal("re-registered auditor has no latency histogram")
	}
	if hist.Count == 0 {
		t.Fatal("re-registered auditor's histogram never observed a sample")
	}
	if st := em.Stats(); len(st) != 1 || st[0].Delivered != latencySampleEvery {
		t.Fatalf("stats after re-register = %+v, want %d delivered", st, latencySampleEvery)
	}
}

func TestSampler(t *testing.T) {
	em := NewMultiplexer()
	var sampled []uint64
	em.SetSampler(3, func(ev *Event) { sampled = append(sampled, ev.Seq) })
	for i := 1; i <= 10; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	if len(sampled) != 3 { // events 3, 6, 9
		t.Fatalf("sampled %d events, want 3: %v", len(sampled), sampled)
	}
	if em.Published() != 10 {
		t.Fatalf("published = %d, want 10", em.Published())
	}
}

func TestSyncAuditorMayCallEM(t *testing.T) {
	// A sync auditor calling back into the EM (e.g. Stats) must not
	// deadlock: delivery happens outside the EM lock.
	em := NewMultiplexer()
	var reentered bool
	a := &AuditorFunc{AuditorName: "reentrant", EventMask: MaskAll, Fn: func(ev *Event) {
		_ = em.Stats()
		reentered = true
	}}
	if err := em.Register(a, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	em.Publish(&Event{Type: EvHalt})
	if !reentered {
		t.Fatal("auditor did not run")
	}
}

// Property: every published event is either delivered, queued or dropped for
// each matching subscription — never lost silently.
func TestPropertyDeliveryAccounting(t *testing.T) {
	f := func(nEvents uint8, capSmall uint8) bool {
		em := NewMultiplexer()
		a, _ := collector("a", MaskAll)
		qcap := int(capSmall%16) + 1
		if err := em.Register(a, DeliverAsync, qcap); err != nil {
			return false
		}
		n := int(nEvents % 64)
		for i := 0; i < n; i++ {
			em.Publish(&Event{Type: EvHalt})
		}
		st := em.Stats()[0]
		if int(st.Queued+st.Dropped) != n {
			return false
		}
		em.Dispatch(0)
		st = em.Stats()[0]
		return int(st.Delivered) == int(st.Queued)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryModeString(t *testing.T) {
	for _, m := range []DeliveryMode{DeliverSync, DeliverAsync, DeliveryMode(9)} {
		if m.String() == "" {
			t.Fatal("empty DeliveryMode string")
		}
	}
}

func TestRHCEndToEnd(t *testing.T) {
	srv, err := NewRHCServer("127.0.0.1:0", 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	client, err := DialRHC("vm0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	// Wire the client as the EM sampler and publish a stream.
	em := NewMultiplexer()
	em.SetSampler(2, client.Send)
	for i := 1; i <= 20; i++ {
		em.Publish(&Event{Type: EvSyscall, Seq: uint64(i), Time: time.Duration(i) * time.Millisecond})
	}

	deadline := time.Now().Add(2 * time.Second)
	for srv.Received() < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Received(); got != 10 {
		t.Fatalf("RHC received %d heartbeats, want 10", got)
	}
	hb, ok := srv.LastHeartbeat("vm0")
	if !ok || hb.Seq != 20 {
		t.Fatalf("last heartbeat = %+v, ok=%v", hb, ok)
	}
	if client.Sent() != 10 {
		t.Fatalf("client sent = %d, want 10", client.Sent())
	}

	// Silence: the watchdog must raise an alert.
	select {
	case alert := <-srv.Alerts():
		if alert.VM != "vm0" {
			t.Fatalf("alert for %q, want vm0", alert.VM)
		}
		if alert.Silence < 80*time.Millisecond {
			t.Fatalf("alert silence %v below threshold", alert.Silence)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no RHC alert after heartbeats stopped")
	}
}

func TestRHCServerValidation(t *testing.T) {
	if _, err := NewRHCServer("127.0.0.1:0", 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestRHCMalformedLinesTolerated(t *testing.T) {
	srv, err := NewRHCServer("127.0.0.1:0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialRHC("vm0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	// Raw garbage followed by a valid heartbeat.
	if _, err := fmt.Fprintf(clientConn(client), "not a heartbeat\nvm0 nan 5\n"); err != nil {
		t.Fatal(err)
	}
	client.Send(&Event{Seq: 1, Time: time.Millisecond})

	deadline := time.Now().Add(2 * time.Second)
	for srv.Received() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Received() != 1 {
		t.Fatalf("received = %d, want 1 (garbage ignored)", srv.Received())
	}
}

// clientConn exposes the client's connection for fault injection in tests.
func clientConn(c *RHCClient) interface{ Write([]byte) (int, error) } {
	return c.conn
}

func TestParseHeartbeat(t *testing.T) {
	tests := []struct {
		line    string
		wantErr bool
	}{
		{"vm0 12 5000", false},
		{"vm0 12", true},
		{"vm0 x 5000", true},
		{"vm0 12 y", true},
		{"", true},
	}
	for _, tt := range tests {
		_, err := parseHeartbeat(tt.line)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseHeartbeat(%q) err = %v, wantErr %v", tt.line, err, tt.wantErr)
		}
	}
}

// --- Sampler edge cases (RHC feed path) ---

func TestSamplerExactCadence(t *testing.T) {
	em := NewMultiplexer()
	var sampled []uint64
	em.SetSampler(4, func(ev *Event) { sampled = append(sampled, ev.Seq) })
	for i := 1; i <= 17; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	// Exactly every 4th publish: events 4, 8, 12, 16.
	want := []uint64{4, 8, 12, 16}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i, seq := range want {
		if sampled[i] != seq {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
}

func TestSamplerZeroDisables(t *testing.T) {
	em := NewMultiplexer()
	calls := 0
	em.SetSampler(0, func(ev *Event) { calls++ })
	for i := 1; i <= 10; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	if calls != 0 {
		t.Fatalf("sampler with n=0 invoked %d times, want 0", calls)
	}
	// Re-enabling with a positive cadence must take effect.
	em.SetSampler(5, func(ev *Event) { calls++ })
	for i := 11; i <= 20; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	if calls != 2 { // publishes 15 and 20
		t.Fatalf("re-enabled sampler invoked %d times, want 2", calls)
	}
}

func TestSamplerSwapMidStream(t *testing.T) {
	em := NewMultiplexer()
	var first, second []uint64
	em.SetSampler(2, func(ev *Event) { first = append(first, ev.Seq) })
	for i := 1; i <= 4; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	// Swap the sampler mid-stream: the published count keeps running, so
	// the new cadence is judged against the global count (publishes 6, 9
	// are the next multiples of 3).
	em.SetSampler(3, func(ev *Event) { second = append(second, ev.Seq) })
	for i := 5; i <= 9; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	if len(first) != 2 || first[0] != 2 || first[1] != 4 {
		t.Fatalf("first sampler saw %v, want [2 4]", first)
	}
	if len(second) != 2 || second[0] != 6 || second[1] != 9 {
		t.Fatalf("second sampler saw %v, want [6 9]", second)
	}
}

func TestSamplerSwapToNil(t *testing.T) {
	em := NewMultiplexer()
	calls := 0
	em.SetSampler(1, func(ev *Event) { calls++ })
	em.Publish(&Event{Type: EvHalt})
	em.SetSampler(1, nil)
	em.Publish(&Event{Type: EvHalt})
	if calls != 1 {
		t.Fatalf("nil sampler still invoked: calls = %d, want 1", calls)
	}
}

// --- Dispatch fairness ---

// TestDispatchRotatesStartingSubscriber pins the round-robin drain: under a
// bounded Dispatch, the subscriber delivered first must rotate between
// calls instead of always being the earliest registrant.
func TestDispatchRotatesStartingSubscriber(t *testing.T) {
	em := NewMultiplexer()
	var order []string
	mk := func(name string) *AuditorFunc {
		return &AuditorFunc{AuditorName: name, EventMask: MaskAll, Fn: func(*Event) {
			order = append(order, name)
		}}
	}
	if err := em.Register(mk("early"), DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(mk("late"), DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	var heads []string
	for i := 0; i < 4; i++ {
		order = order[:0]
		if n := em.Dispatch(1); n != 2 {
			t.Fatalf("Dispatch(1) delivered %d, want 2 (one per subscriber)", n)
		}
		heads = append(heads, order[0])
	}
	sawLateFirst := false
	for _, h := range heads {
		if h == "late" {
			sawLateFirst = true
		}
	}
	if !sawLateFirst {
		t.Fatalf("late registrant never drained first across calls: heads = %v", heads)
	}
}

// --- EM telemetry ---

func TestEMTelemetryCountersAndQueueDepth(t *testing.T) {
	em := NewMultiplexer()
	reg := telemetry.NewRegistry()
	em.EnableTelemetry(reg)

	sink := &AuditorFunc{AuditorName: "sync-sink", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(sink, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	slow, _ := collector("async-slow", MaskAll)
	if err := em.Register(slow, DeliverAsync, 4); err != nil {
		t.Fatal(err)
	}

	// 6 publishes against a 4-slot ring: 2 drops.
	for i := 0; i < 6; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["hypertap_events_published_total"] != 6 {
		t.Fatalf("published counter = %d, want 6", counters["hypertap_events_published_total"])
	}
	if counters["hypertap_events_dropped_total"] != 2 {
		t.Fatalf("dropped counter = %d, want 2", counters["hypertap_events_dropped_total"])
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["hypertap_async_queue_depth"] != 4 {
		t.Fatalf("queue depth = %v, want 4", gauges["hypertap_async_queue_depth"])
	}
	if gauges["hypertap_async_queue_highwater"] != 4 {
		t.Fatalf("high water = %v, want 4", gauges["hypertap_async_queue_highwater"])
	}

	// Draining restores depth to zero but leaves the high-water mark.
	em.Dispatch(0)
	snap = reg.Snapshot()
	for _, g := range snap.Gauges {
		switch g.Name {
		case "hypertap_async_queue_depth":
			if g.Value != 0 {
				t.Fatalf("queue depth after drain = %v, want 0", g.Value)
			}
		case "hypertap_async_queue_highwater":
			if g.Value != 4 {
				t.Fatalf("high water after drain = %v, want 4", g.Value)
			}
		}
	}
}

func TestEMTelemetrySampledSyncLatency(t *testing.T) {
	em := NewMultiplexer()
	reg := telemetry.NewRegistry()
	em.EnableTelemetry(reg)
	busy := &AuditorFunc{AuditorName: "busy", EventMask: MaskAll, Fn: func(*Event) {
		time.Sleep(50 * time.Microsecond)
	}}
	if err := em.Register(busy, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	const publishes = 4 * latencySampleEvery // 4 sampled observations
	for i := 0; i < publishes; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	snap := reg.Snapshot()
	var hist *telemetry.HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "hypertap_auditor_handle_seconds" {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatal("no hypertap_auditor_handle_seconds histogram in snapshot")
	}
	if hist.Labels[0] != telemetry.L("auditor", "busy") {
		t.Fatalf("histogram labels = %v", hist.Labels)
	}
	want := uint64(publishes / latencySampleEvery)
	if hist.Count != want {
		t.Fatalf("sampled latency count = %d, want %d", hist.Count, want)
	}
	if p50 := hist.Quantile(0.5); p50 < 10*time.Microsecond {
		t.Fatalf("p50 = %v, implausibly below the 50µs handler sleep", p50)
	}
}

// --- RHC telemetry and health ---

func TestRHCTelemetryAndHealth(t *testing.T) {
	srv, err := NewRHCServer("127.0.0.1:0", 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	reg := telemetry.NewRegistry()
	srv.EnableTelemetry(reg)

	if err := srv.Health(); err != nil {
		t.Fatalf("Health before any heartbeat = %v, want nil", err)
	}

	client, err := DialRHC("vm0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	client.Send(&Event{Seq: 1, Time: time.Millisecond})

	deadline := time.Now().Add(2 * time.Second)
	for srv.Received() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Health(); err != nil {
		t.Fatalf("Health with fresh heartbeat = %v, want nil", err)
	}

	// Stall: health must degrade and a missed beat must be counted.
	deadline = time.Now().Add(2 * time.Second)
	for srv.Health() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Health(); err == nil {
		t.Fatal("Health still ok after heartbeat stall")
	}
	select {
	case <-srv.Alerts():
	case <-time.After(2 * time.Second):
		t.Fatal("no alert after stall")
	}
	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["hypertap_rhc_heartbeats_total"] != 1 {
		t.Fatalf("heartbeats counter = %d, want 1", counters["hypertap_rhc_heartbeats_total"])
	}
	if counters["hypertap_rhc_missed_beats_total"] == 0 {
		t.Fatal("missed beats counter still zero after stall")
	}
	var age float64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "hypertap_rhc_heartbeat_age_seconds" {
			age = g.Value
		}
	}
	if age <= 0 {
		t.Fatalf("heartbeat age gauge = %v, want > 0 after stall", age)
	}
}
