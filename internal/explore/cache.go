package explore

import (
	"math"
	"sync"
	"sync/atomic"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/energy"
	"chrysalis/internal/intermittent"
	"chrysalis/internal/obs"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// fingerprint canonically identifies everything the per-layer plan
// ladders depend on: the inference-side hardware (platform plus, for
// accelerator candidates, the full accel config), the exception rate
// and the workload identity. The energy genes (panel area, capacitance)
// are deliberately absent — plans are budget-independent, the budget
// only selects a ladder rung at scan time — so candidates that differ
// only in energy genes share one cache entry. On the MSP platform the
// fingerprint is constant across the whole search.
type fingerprint struct {
	platform  PlatformKind
	arch      accel.Arch
	npe       int
	cache     units.Bytes
	rexc      float64
	workload  string
	elemBytes int
	layers    int
}

// fingerprintOf derives the candidate's fingerprint under a
// default-filled scenario. It allocates nothing (comparable struct key).
func fingerprintOf(sc Scenario, cand Candidate) fingerprint {
	fp := fingerprint{
		platform:  sc.Platform,
		rexc:      sc.Rexc,
		workload:  sc.Workload.Name,
		elemBytes: sc.Workload.ElemBytes,
		layers:    len(sc.Workload.Layers),
	}
	if cand.Accel != nil {
		fp.arch = cand.Accel.Arch
		fp.npe = cand.Accel.NPE
		fp.cache = cand.Accel.CacheBytes
	}
	return fp
}

// dfCtx pairs a dataflow with the hardware cost constants it implies
// for one candidate.
type dfCtx struct {
	df dataflow.Dataflow
	hw dataflow.HW
}

// ladderSet is the complete precomputed mapping space for one
// fingerprint: the dataflow contexts the inner optimizer explores and,
// per layer, one ladder per (dataflow, partition) pair. It is immutable
// after construction and therefore shared freely across goroutines.
type ladderSet struct {
	ctxs []dfCtx
	// ladders[layer][2*ctxIndex + int(partition)]
	ladders [][]intermittent.Ladder
}

// ladderAt returns the ladder for (layer, dataflow context, partition).
func (ls *ladderSet) ladderAt(layer, ctx int, part dataflow.Partition) *intermittent.Ladder {
	return &ls.ladders[layer][2*ctx+int(part)]
}

// buildLadderSet computes every ladder the inner search needs for one
// hardware fingerprint, in the exact order the per-call search explored
// them (dataflows outer, partitions inner) so scans reproduce the old
// trajectory bit for bit.
func buildLadderSet(sc Scenario, cand Candidate) (*ladderSet, error) {
	dfs := dataflowChoices(sc)
	ls := &ladderSet{ctxs: make([]dfCtx, 0, len(dfs))}
	for _, df := range dfs {
		hw, err := platformHW(sc, cand, df)
		if err != nil {
			return nil, err
		}
		ls.ctxs = append(ls.ctxs, dfCtx{df: df, hw: hw})
	}
	ls.ladders = make([][]intermittent.Ladder, len(sc.Workload.Layers))
	for li, l := range sc.Workload.Layers {
		row := make([]intermittent.Ladder, 2*len(ls.ctxs))
		for ci, ctx := range ls.ctxs {
			for _, part := range []dataflow.Partition{dataflow.ByChannel, dataflow.BySpatial} {
				ld, err := intermittent.BuildLadderTraced(sc.Trace, l, sc.Workload.ElemBytes, ctx.df, part, ctx.hw, sc.Rexc)
				if err != nil {
					return nil, err
				}
				row[2*ci+int(part)] = ld
			}
		}
		ls.ladders[li] = row
	}
	return ls, nil
}

// Process-wide cumulative plan-cache counters, aggregated across every
// Evaluator so serving layers (chrysalisd /metrics) can export them.
var (
	globalCacheHits   atomic.Int64
	globalCacheMisses atomic.Int64
)

// EvalCacheCounters returns the process-wide cumulative evaluator
// plan-cache hit and miss counts. Both are monotonic, suitable for
// Prometheus counter export.
func EvalCacheCounters() (hits, misses int64) {
	return globalCacheHits.Load(), globalCacheMisses.Load()
}

// fingerprintHash mixes every fingerprint field into a warm-tier shard
// index with an FNV-1a over the fixed-width fields plus the workload
// name. It is allocation-free and deliberately avoids hash/maphash so
// the module's floor stays at go1.22.
func fingerprintHash(fp fingerprint) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(fp.platform))
	mix(uint64(fp.arch))
	mix(uint64(fp.npe))
	mix(uint64(fp.cache))
	mix(math.Float64bits(fp.rexc))
	mix(uint64(fp.elemBytes))
	mix(uint64(fp.layers))
	for i := 0; i < len(fp.workload); i++ {
		h ^= uint64(fp.workload[i])
		h *= prime64
	}
	return h
}

// planCache memoizes ladder sets per hardware fingerprint for one
// Evaluator. It is safe for concurrent use (search.GAConfig.Workers >
// 1): lookups take the map's read lock, and concurrent misses on the
// same fingerprint coalesce through a per-fingerprint single-flight
// group, so every set is built exactly once no matter how many workers
// miss it at once.
type planCache struct {
	mu       sync.RWMutex
	sets     map[fingerprint]*ladderSet
	hits     atomic.Int64
	misses   atomic.Int64
	warmHits atomic.Int64
	// warm, when non-nil, is the process-lifetime tier consulted between
	// a map miss and a build; sets built here are published back to it.
	warm *WarmCache
	// flight coalesces this search's concurrent builds when no warm tier
	// is attached; with one attached, the tier's group is used instead so
	// deduplication spans concurrent searches too.
	flight flightGroup
}

func newPlanCache(warm *WarmCache) *planCache {
	return &planCache{sets: make(map[fingerprint]*ladderSet), warm: warm}
}

// get returns the ladder set for the candidate's fingerprint, building
// and caching it on a miss.
func (pc *planCache) get(sc Scenario, cand Candidate) (*ladderSet, error) {
	fp := fingerprintOf(sc, cand)
	pc.mu.RLock()
	ls, ok := pc.sets[fp]
	pc.mu.RUnlock()
	if ok {
		pc.hit()
		return ls, nil
	}
	// Per-search miss. Consult the warm tier first: a set another search
	// already built is adopted into this search's map without a build.
	if w := pc.warm; w != nil {
		if ls, ok := w.lookup(fp); ok {
			pc.publish(fp, ls, true)
			return ls, nil
		}
	}
	// Build exactly once per fingerprint: the single-flight group (the
	// warm tier's when attached, so deduplication spans searches) elects
	// one builder; everyone else waits and shares its set.
	flight := &pc.flight
	if pc.warm != nil {
		flight = &pc.warm.flight
	}
	// The builder publishes its set into this search's map before
	// admitting it to the warm tier, so a worker of this search that
	// finds the set warm counts a hit, not the build's miss.
	built, shared, err := flight.do(fp, func() (*ladderSet, error) {
		var sp *obs.Span
		if sc.Trace != nil {
			sp = sc.Trace.Start("explore", "ladder-build",
				obs.A("platform", sc.Platform.String()), obs.A("arch", fp.arch.String()),
				obs.A("npe", fp.npe), obs.A("layers", fp.layers))
		}
		ls, err := buildLadderSet(sc, cand)
		if sp != nil {
			sp.End(obs.A("err", err != nil))
		}
		if err == nil {
			pc.publish(fp, ls, false)
			if pc.warm != nil {
				pc.warm.admit(fp, ls)
			}
		}
		return ls, err
	})
	if err != nil {
		return nil, err
	}
	if shared {
		// A waiter on another caller's build: tally the saved duplicate
		// build on the warm tier and publish the shared set here.
		if pc.warm != nil {
			pc.warm.dedup.Add(1)
		}
		pc.publish(fp, built, false)
	}
	return built, nil
}

// publish installs a set in the map (first writer wins — callers racing
// here always carry the identical single-flight result) and counts the
// lookup. Every lookup is a hit or a miss, and only the lookup that
// inserts a fingerprint counts a miss (plus a warm hit when the warm
// tier served it): single-flight waiters and late publishers count
// hits. Misses therefore equal the search's distinct fingerprints
// whatever the worker count or timing.
func (pc *planCache) publish(fp fingerprint, ls *ladderSet, warm bool) {
	pc.mu.Lock()
	_, present := pc.sets[fp]
	if !present {
		pc.sets[fp] = ls
	}
	pc.mu.Unlock()
	if present {
		pc.hit()
	} else {
		pc.miss(warm)
	}
}

func (pc *planCache) hit() {
	pc.hits.Add(1)
	globalCacheHits.Add(1)
}

func (pc *planCache) miss(warm bool) {
	pc.misses.Add(1)
	globalCacheMisses.Add(1)
	if warm {
		pc.warmHits.Add(1)
	}
}

// subsKey identifies a candidate's energy genes — the only inputs the
// energy subsystem depends on beyond the scenario's fixed environments.
type subsKey struct {
	panel units.AreaCM2
	cap   units.Capacitance
}

// subsystemCache memoizes the per-environment energy subsystems keyed
// on the candidate's energy genes (the outer GA revisits gene values
// constantly — elites, crossover copies — from every worker at once).
// The evaluation path only issues the subsystem's read-only closed-form
// queries (CycleBudget, sim.Analytic), so one instance safely serves
// concurrent evaluations.
type subsystemCache struct {
	envs []solar.Environment
	mu   sync.RWMutex
	m    map[subsKey][]*energy.Subsystem
}

func newSubsystemCache(envs []solar.Environment) *subsystemCache {
	return &subsystemCache{envs: envs, m: make(map[subsKey][]*energy.Subsystem)}
}

// get returns the candidate's subsystems, building them on a miss.
// Racing misses may build twice; the loser is discarded.
func (c *subsystemCache) get(cand Candidate) ([]*energy.Subsystem, error) {
	k := subsKey{panel: cand.PanelArea, cap: cand.Cap}
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v, nil
	}
	built, err := buildSubsystems(c.envs, cand)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if raced, ok := c.m[k]; ok {
		built = raced
	} else {
		c.m[k] = built
	}
	c.mu.Unlock()
	return built, nil
}
