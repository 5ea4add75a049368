package adaptive

import (
	"context"
	"sync"
	"testing"

	"repro"
	"repro/internal/machine"
)

// testSrc is a two-function kernel with one drifting may-alias site in
// hot (training probability 1/16 at mod=16, 1/2 at mod=2), so every
// tier override changes real speculation decisions.
const testSrc = `
int acc = 0;
int scratch = 0;

int hot(int n, int mod) {
	int sum = 0;
	for (int i = 0; i < n; i++) {
		int *p;
		if (i % mod == 0) { p = &acc; } else { p = &scratch; }
		int x = acc;
		*p = x + i;
		int y = acc;
		sum = sum + x + y;
	}
	return sum;
}

int main() {
	int n = arg(0);
	int mod = arg(1);
	print(hot(n, mod));
	return 0;
}`

func testBuild() repro.Config {
	return repro.Config{Spec: repro.SpecCost, SpecThreshold: 1, ProfileArgs: []int64{64, 16}}
}

func TestTierRoundTrip(t *testing.T) {
	for tier := TierAggressive; tier <= TierNone; tier++ {
		got, ok := TierByName(tier.String())
		if !ok || got != tier {
			t.Errorf("TierByName(%q) = %v, %v", tier.String(), got, ok)
		}
	}
	if _, ok := TierByName("bogus"); ok {
		t.Error("TierByName accepted bogus name")
	}
}

func TestFnSpecs(t *testing.T) {
	specs, err := FnSpecs(map[string]string{"a": "aggressive", "b": "cautious", "c": "profile", "d": "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := specs["a"]; ok {
		t.Error("aggressive must not produce an override")
	}
	if fs := specs["b"]; fs.Spec != repro.SpecCost || fs.SpecThreshold != HighThreshold {
		t.Errorf("cautious override = %+v", fs)
	}
	if fs := specs["c"]; fs.Spec != repro.SpecProfile {
		t.Errorf("profile override = %+v", fs)
	}
	if fs := specs["d"]; fs.Spec != repro.SpecOff {
		t.Errorf("none override = %+v", fs)
	}
	if specs, err := FnSpecs(map[string]string{"a": "aggressive"}); err != nil || specs != nil {
		t.Errorf("all-aggressive map must collapse to nil, got %v, %v", specs, err)
	}
	if _, err := FnSpecs(map[string]string{"a": "turbo"}); err == nil {
		t.Error("unknown tier name must error")
	}
}

// TestFlappingBounded feeds an adversarial alternation of failing and
// clean windows and checks the probation doubling keeps the number of
// published transitions at a handful, not one per oscillation.
func TestFlappingBounded(t *testing.T) {
	p := Policy{}.withDefaults()
	s := &fnState{}
	transitions := 0
	for i := 0; i < 200; i++ {
		var failed int64
		if i%2 == 0 {
			failed = p.WindowChecks / 2 // rate 0.5: demotion pressure
		}
		if _, ok := s.observe(p, p.WindowChecks, failed); ok {
			transitions++
		}
	}
	if transitions > 8 {
		t.Errorf("oscillating failure rate caused %d transitions; hysteresis should bound flapping", transitions)
	}
	if s.tier == TierAggressive {
		t.Error("sustained oscillation should leave the function demoted")
	}
}

// TestProbationRepromotes checks the clean-window budget: one clean
// window re-promotes after the first demotion, and the budget doubles
// with repeated demotions.
func TestProbationRepromotes(t *testing.T) {
	p := Policy{}.withDefaults()
	s := &fnState{}
	if tr, ok := s.observe(p, p.WindowChecks, p.WindowChecks/2); !ok || tr.To != TierCautious {
		t.Fatalf("first failing window: got %v, %v", tr, ok)
	}
	if tr, ok := s.observe(p, p.WindowChecks, 0); !ok || tr.To != TierAggressive {
		t.Fatalf("clean window after first demotion should re-promote, got %v, %v", tr, ok)
	}
	// Second demotion: probation doubled to 2, one clean window is no
	// longer enough.
	if tr, ok := s.observe(p, p.WindowChecks, p.WindowChecks/2); !ok || tr.To != TierCautious {
		t.Fatalf("second failing window: got %v, %v", tr, ok)
	}
	if _, ok := s.observe(p, p.WindowChecks, 0); ok {
		t.Fatal("one clean window must not satisfy a doubled probation")
	}
	if tr, ok := s.observe(p, p.WindowChecks, 0); !ok || tr.To != TierAggressive {
		t.Fatalf("second consecutive clean window should re-promote, got %v, %v", tr, ok)
	}
	// A dead-band window (rate between the thresholds) resets the run.
	s.observe(p, p.WindowChecks, p.WindowChecks/2)
	s.observe(p, p.WindowChecks, 0)
	mid := int64(float64(p.WindowChecks) * (p.PromoteBelow + p.DemoteAbove) / 2)
	if _, ok := s.observe(p, p.WindowChecks, mid); ok {
		t.Fatal("dead-band window must not transition")
	}
	if _, ok := s.observe(p, p.WindowChecks, 0); ok {
		t.Fatal("dead band must reset the clean run")
	}
}

// TestEvalWindowTicksSilentFunction: a function at TierNone retires no
// checks; the eval-count window close must still re-promote it.
func TestEvalWindowTicksSilentFunction(t *testing.T) {
	p := Policy{WindowEvals: 2}.withDefaults()
	s := &fnState{tier: TierNone, probation: 1}
	for i := 0; i < 3; i++ {
		if tr, ok := s.observe(p, 0, 0); ok {
			if tr.To != TierProfile {
				t.Fatalf("silent re-promotion went to %v", tr.To)
			}
			return
		}
	}
	t.Fatal("silent function never re-promoted via eval-count windows")
}

func TestManagerDemoteAndRepromote(t *testing.T) {
	var mu sync.Mutex
	var seen []Transition
	m := NewManager(Config{
		Source: testSrc,
		Build:  testBuild(),
		Policy: Policy{WindowChecks: 64, WindowEvals: 4, MinChecks: 16},
		OnTransition: func(tr Transition) {
			mu.Lock()
			seen = append(seen, tr)
			mu.Unlock()
		},
	})
	defer m.Close()

	feed := func(checks, failed int64) {
		asn := m.Snapshot()
		m.Observe(asn.Version, map[string]machine.FuncCounters{
			"hot": {CheckLoads: checks, FailedChecks: failed},
		})
		m.Quiesce()
	}

	feed(64, 32) // one failing window: demote
	asn := m.Snapshot()
	if asn.Tiers["hot"] != "cautious" {
		t.Fatalf("after failing window, tiers = %v", asn.Tiers)
	}
	if asn.Version == 0 {
		t.Fatal("publication must advance the version")
	}
	feed(64, 0) // one clean window: probation 1 satisfied, promote
	asn = m.Snapshot()
	if len(asn.Tiers) != 0 {
		t.Fatalf("after clean window, tiers = %v", asn.Tiers)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0].To != TierCautious || seen[1].To != TierAggressive {
		t.Fatalf("transition callbacks = %v", seen)
	}
}

// TestManagerStaleObservationsDropped: counters reported against a
// superseded assignment version must not influence the monitor.
func TestManagerStaleObservationsDropped(t *testing.T) {
	m := NewManager(Config{
		Source: testSrc,
		Build:  testBuild(),
		Policy: Policy{WindowChecks: 64, WindowEvals: 4, MinChecks: 16},
	})
	defer m.Close()
	old := m.Snapshot()
	m.Observe(old.Version, map[string]machine.FuncCounters{"hot": {CheckLoads: 64, FailedChecks: 32}})
	m.Quiesce()
	// old.Version is now stale; this failing report must be ignored.
	m.Observe(old.Version, map[string]machine.FuncCounters{"hot": {CheckLoads: 64, FailedChecks: 64}})
	m.Quiesce()
	if got := m.Snapshot().Tiers["hot"]; got != "cautious" {
		t.Fatalf("stale observation changed the assignment: %v", m.Snapshot().Tiers)
	}
}

// TestManagerRevertOnVerifyFailure: a tier vector whose verification
// compile fails (here: the profiling run faults) must not be
// published, and the manager must stay live for later decisions.
func TestManagerRevertOnVerifyFailure(t *testing.T) {
	var seen []Transition
	var mu sync.Mutex
	m := NewManager(Config{
		Source: `
int main() {
	int n = arg(0);
	print(10 / n);
	return 0;
}`,
		// ProfileArgs {0} make the training run fault, so every
		// verification compile reports ProfileErr.
		Build: repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{0}},
		OnTransition: func(tr Transition) {
			mu.Lock()
			seen = append(seen, tr)
			mu.Unlock()
		},
		Policy: Policy{WindowChecks: 64, WindowEvals: 4, MinChecks: 16},
	})
	defer m.Close()

	asn := m.Snapshot()
	m.Observe(asn.Version, map[string]machine.FuncCounters{"main": {CheckLoads: 64, FailedChecks: 32}})
	m.Quiesce()

	after := m.Snapshot()
	if len(after.Tiers) != 0 {
		t.Fatalf("unverifiable vector was published: %v", after.Tiers)
	}
	if after.Version == asn.Version {
		t.Fatal("revert must advance the version so in-flight reports go stale")
	}
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("reverted transitions fired callbacks: %v", seen)
	}
	// Liveness: the monitor accepts observations against the new
	// version (they will decide and fail verification again, but the
	// manager must not wedge).
	m.Observe(after.Version, map[string]machine.FuncCounters{"main": {CheckLoads: 64, FailedChecks: 0}})
	m.Quiesce()
}

// TestManagerHotSwapNotTorn runs concurrent evaluations against
// whatever assignment is published while the monitor walks the ladder,
// and checks every snapshot is internally consistent (valid tier
// names, immutable map) and every evaluation output matches the
// reference. Run under -race this also proves the swap itself is
// data-race free.
func TestManagerHotSwapNotTorn(t *testing.T) {
	build := testBuild()
	m := NewManager(Config{Source: testSrc, Build: build, Policy: Policy{WindowChecks: 64, WindowEvals: 4, MinChecks: 16}})
	defer m.Close()

	ref, err := repro.CompileCtx(context.Background(), testSrc, repro.Config{Spec: repro.SpecOff, ProfileArgs: []int64{64, 16}})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.RunCtx(context.Background(), []int64{64, 2})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				asn := m.Snapshot()
				if asn.Version < lastVersion {
					errs <- strErr("assignment version went backward")
					return
				}
				lastVersion = asn.Version
				cfg := build
				var err error
				cfg.FnSpec, err = FnSpecs(asn.Tiers)
				if err != nil {
					errs <- err // torn map: invalid tier name leaked
					return
				}
				c, err := repro.CompileCtx(context.Background(), testSrc, cfg)
				if err != nil {
					errs <- err
					return
				}
				res, err := c.RunCtx(context.Background(), []int64{64, 2})
				if err != nil {
					errs <- err
					return
				}
				if res.Output != refRes.Output {
					errs <- strErr("evaluation under swapped assignment diverged from reference")
					return
				}
				m.Observe(asn.Version, res.PerFunc)
			}
		}()
	}

	// Drive the ladder from the main goroutine too: failing windows
	// force demotions concurrent with the readers' snapshots.
	for i := 0; i < 40; i++ {
		asn := m.Snapshot()
		failed := int64(0)
		if i%4 != 3 {
			failed = 32
		}
		m.Observe(asn.Version, map[string]machine.FuncCounters{"hot": {CheckLoads: 64, FailedChecks: failed}})
	}
	m.Quiesce()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type strErr string

func (e strErr) Error() string { return string(e) }
