package inject

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hypertap/internal/guest"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(Fault{Site: 0, Persistence: Transient}, nil); err == nil {
		t.Error("site 0 accepted")
	}
	if _, err := NewPlan(Fault{Site: 1}, nil); err == nil {
		t.Error("zero persistence accepted")
	}
	if _, err := NewPlan(Fault{Site: 1, Persistence: Transient}, nil); err != nil {
		t.Error(err)
	}
}

func TestTransientFiresOnce(t *testing.T) {
	now := time.Duration(0)
	plan, err := NewPlan(Fault{Site: 5, Persistence: Transient}, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	if plan.Executed() {
		t.Fatal("executed before any consult")
	}
	now = 3 * time.Second
	if !plan.Armed(5) {
		t.Fatal("first consult not armed")
	}
	for i := 0; i < 10; i++ {
		if plan.Armed(5) {
			t.Fatal("transient fault fired twice")
		}
	}
	if plan.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", plan.Fired())
	}
	if plan.ActivatedAt() != 3*time.Second {
		t.Fatalf("activated at %v, want 3s", plan.ActivatedAt())
	}
	if !plan.Executed() {
		t.Fatal("not marked executed")
	}
}

func TestPersistentFiresAlways(t *testing.T) {
	plan, err := NewPlan(Fault{Site: 5, Persistence: Persistent}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !plan.Armed(5) {
			t.Fatal("persistent fault not armed")
		}
	}
	if plan.Fired() != 10 {
		t.Fatalf("fired = %d, want 10", plan.Fired())
	}
}

func TestOtherSitesNeverArmed(t *testing.T) {
	plan, err := NewPlan(Fault{Site: 5, Persistence: Persistent}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Armed(6) || plan.Armed(4) {
		t.Fatal("wrong site armed")
	}
	if plan.Executed() {
		t.Fatal("wrong-site consults counted as execution")
	}
}

// Property: a transient plan fires exactly once no matter the consult
// sequence; a persistent plan fires exactly as often as its site is hit.
func TestPropertyPlanSemantics(t *testing.T) {
	f := func(hits []uint8, persistent bool) bool {
		p := Transient
		if persistent {
			p = Persistent
		}
		plan, err := NewPlan(Fault{Site: 3, Persistence: p}, nil)
		if err != nil {
			return false
		}
		siteHits := 0
		for _, h := range hits {
			site := guest.SiteID(h%5 + 1)
			if site == 3 {
				siteHits++
			}
			plan.Armed(site)
		}
		if persistent {
			return int(plan.Fired()) == siteHits
		}
		want := 0
		if siteHits > 0 {
			want = 1
		}
		return int(plan.Fired()) == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range AllOutcomes() {
		if o.String() == "" {
			t.Fatalf("outcome %d has empty string", o)
		}
	}
	if Outcome(99).String() == "" {
		t.Fatal("unknown outcome empty string")
	}
	for _, p := range []Persistence{Transient, Persistent, Persistence(9)} {
		if p.String() == "" {
			t.Fatal("empty persistence string")
		}
	}
}

func TestRunResultLatencies(t *testing.T) {
	r := RunResult{ActivatedAt: 2 * time.Second, FirstAlarmAt: 6 * time.Second, FullHangAt: 9 * time.Second}
	if lat, ok := r.DetectionLatency(); !ok || lat != 4*time.Second {
		t.Fatalf("detection latency = %v,%v", lat, ok)
	}
	if lat, ok := r.FullHangLatency(); !ok || lat != 7*time.Second {
		t.Fatalf("full-hang latency = %v,%v", lat, ok)
	}
	empty := RunResult{}
	if _, ok := empty.DetectionLatency(); ok {
		t.Fatal("latency from empty result")
	}
	if _, ok := empty.FullHangLatency(); ok {
		t.Fatal("full latency from empty result")
	}
}
