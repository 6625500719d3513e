package explore

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/sim"
	"chrysalis/internal/units"
)

// evaluateReference is the uncached evaluation the memoized engine must
// reproduce. It builds fresh energy subsystems, scans each (dataflow,
// partition) mapping space per call with early exit at the first
// budget-feasible tile count (intermittent.MinFeasibleTiles), keeps
// each layer's cheapest plan (first wins on ties, in dataflow-then-
// partition order) and runs the analytic evaluator under every
// environment. It shares no cache, ladder or arena with Evaluator.
func evaluateReference(sc Scenario, cand Candidate) (Evaluation, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Evaluation{}, err
	}
	if err := (&Evaluator{sc: sc}).checkCandidate(cand); err != nil {
		return Evaluation{}, err
	}
	subsystems, err := buildSubsystems(sc.Envs, cand)
	if err != nil {
		return Evaluation{}, err
	}
	budget := cycleBudget(subsystems)
	dfs := dataflowChoices(sc)
	hws := make([]dataflow.HW, len(dfs))
	for i, df := range dfs {
		if hws[i], err = platformHW(sc, cand, df); err != nil {
			return Evaluation{}, err
		}
	}
	w := sc.Workload
	plans := make([]intermittent.Plan, len(w.Layers))
	for li, l := range w.Layers {
		bestE := units.Energy(math.Inf(1))
		found := false
		for ci, df := range dfs {
			for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
				p, err := intermittent.MinFeasibleTiles(l, w.ElemBytes, df, part, hws[ci], sc.Rexc, budget)
				if err == nil && p.Energy < bestE {
					bestE, plans[li], found = p.Energy, p, true
				}
			}
		}
		if !found {
			return Evaluation{}, fmt.Errorf("explore: layer %s infeasible on %s: %w",
				l.Name, cand, intermittent.ErrNoFeasibleTile)
		}
	}

	ev := Evaluation{Candidate: cand, Mappings: make([]LayerChoice, len(plans)), Feasible: true}
	for i, p := range plans {
		ev.Mappings[i] = LayerChoice{Layer: p.Layer.Name, Mapping: p.Cost.Mapping, Plan: p}
	}
	tot := intermittent.Sum(plans)
	var latSum float64
	for i, env := range sc.Envs {
		r := sim.AnalyticTotals(subsystems[i], tot)
		ev.PerEnv = append(ev.PerEnv, EnvResult{
			Env:        env.Name(),
			Latency:    r.E2ELatency,
			Energy:     r.Breakdown.Delivered(),
			CkptEnergy: r.Breakdown.Ckpt,
			Efficiency: r.SystemEfficiency,
			Feasible:   r.Completed,
		})
		if !r.Completed {
			ev.Feasible = false
			continue
		}
		latSum += float64(r.E2ELatency)
	}
	if ev.Feasible {
		ev.AvgLatency = units.Seconds(latSum / float64(len(sc.Envs)))
		ev.LatSP = float64(ev.AvgLatency) * float64(cand.PanelArea)
	} else {
		ev.AvgLatency = units.Seconds(math.Inf(1))
		ev.LatSP = math.Inf(1)
	}
	return ev, nil
}

// mspCandidates spans the energy genes the outer search varies on the
// MSP platform. The inference-side fingerprint is identical for all of
// them, so a single cached ladder set must serve every one.
func mspCandidates() []Candidate {
	return []Candidate{
		{PanelArea: 4, Cap: 47e-6},
		{PanelArea: 8, Cap: 100e-6},
		{PanelArea: 16, Cap: 220e-6},
		{PanelArea: 25, Cap: 1e-3},
	}
}

// accelCandidates varies both the energy genes and the accelerator
// genes, so the fingerprint cache must hold several distinct entries.
func accelCandidates() []Candidate {
	return []Candidate{
		{PanelArea: 16, Cap: 1e-3, Accel: &accel.Config{Arch: accel.Eyeriss, NPE: 32, CacheBytes: 512}},
		{PanelArea: 16, Cap: 1e-3, Accel: &accel.Config{Arch: accel.Eyeriss, NPE: 64, CacheBytes: 1024}},
		{PanelArea: 25, Cap: 2e-3, Accel: &accel.Config{Arch: accel.TPU, NPE: 64, CacheBytes: 1024}},
		{PanelArea: 9, Cap: 470e-6, Accel: &accel.Config{Arch: accel.TPU, NPE: 16, CacheBytes: 512}},
	}
}

// TestCachedMatchesUncached is the end-to-end differential for the
// memoized evaluation engine: a caching Evaluator must produce
// Evaluations deep-equal to the uncached evaluateReference scan for
// both platforms, across repeated evaluations (cache hits included).
func TestCachedMatchesUncached(t *testing.T) {
	cases := []struct {
		name  string
		sc    Scenario
		cands []Candidate
	}{
		{"msp-har", Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}, mspCandidates()},
		{"msp-cifar", Scenario{Workload: dnn.CIFAR10(), Platform: MSP, Objective: Lat}, mspCandidates()},
		{"accel-har", Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}, accelCandidates()},
		{"accel-resnet", Scenario{Workload: dnn.ResNet18(), Platform: Accel, Objective: LatSP}, accelCandidates()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEvaluator(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: the second is served entirely from the cache.
			for round := 0; round < 2; round++ {
				for _, cand := range tc.cands {
					want, wantErr := evaluateReference(tc.sc, cand)
					got, gotErr := e.Evaluate(cand)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("round %d %s: uncached err %v, cached err %v", round, cand, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("round %d %s: cached evaluation diverged:\n%+v\nvs uncached\n%+v", round, cand, got, want)
					}
				}
			}
			hits, misses := e.CacheStats()
			if hits == 0 {
				t.Error("repeated evaluations should produce cache hits")
			}
			if tc.sc.Platform == MSP && misses != 1 {
				t.Errorf("MSP fingerprint is constant: misses = %d, want 1", misses)
			}
			if tc.sc.Platform == Accel && misses < 2 {
				t.Errorf("distinct accel configs should miss separately: misses = %d", misses)
			}
		})
	}
}

// TestEvaluatorCacheConcurrent hammers one shared Evaluator from many
// goroutines (the GA Workers > 1 contract) and checks every result
// still matches the uncached reference. Run under -race via `make
// race-cache`.
func TestEvaluatorCacheConcurrent(t *testing.T) {
	sc := Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}
	cands := accelCandidates()

	refs := make([]Evaluation, len(cands))
	for i, cand := range cands {
		ev, err := evaluateReference(sc, cand)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ev
	}

	e, err := NewEvaluator(sc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cands)
				got, err := e.Evaluate(cands[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, refs[i]) {
					errs <- fmt.Errorf("goroutine %d round %d: result diverged for %s", g, r, cands[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := e.CacheStats()
	if hits+misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, goroutines*rounds)
	}
	if misses < int64(len(cands)) {
		t.Errorf("misses = %d, want >= %d distinct fingerprints", misses, len(cands))
	}
}

// TestScoreAllocationFree pins the steady-state score path — the one
// the outer GA runs per candidate — at zero allocations once the
// candidate's ladder set and energy subsystems are cached.
func TestScoreAllocationFree(t *testing.T) {
	cases := []struct {
		sc   Scenario
		cand Candidate
	}{
		{Scenario{Workload: dnn.HAR(), Platform: MSP, Objective: LatSP}, mspCandidates()[1]},
		{Scenario{Workload: dnn.HAR(), Platform: Accel, Objective: LatSP}, accelCandidates()[0]},
	}
	for _, tc := range cases {
		e, err := NewEvaluator(tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.score(tc.cand); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { e.score(tc.cand) }); n != 0 {
			t.Errorf("%s: %v allocations per cached score, want 0", tc.sc.Platform, n)
		}
	}
}
