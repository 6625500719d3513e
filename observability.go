package chrysalis

import (
	"chrysalis/internal/obs"
	"chrysalis/internal/search"
	"chrysalis/internal/sim"
)

// Version is the CHRYSALIS release string — also the version label on
// the chrysalis_build_info metric and the -version output of the CLIs.
const Version = obs.Version

// Trace records pipeline spans — outer-GA generations, explorer
// score/evaluate calls, plan-ladder builds and step-simulator power
// cycles — into a bounded ring buffer and exports them as Chrome
// trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Attach one via Spec.Search.Trace before calling Design; tracing is
// observational only (it never changes results, cache identity or the
// search trajectory) and a nil trace disables it at zero cost:
//
//	tr := chrysalis.NewTrace(0)
//	spec.Search.Trace = tr
//	res, _ := chrysalis.Design(spec)
//	f, _ := os.Create("trace.json")
//	tr.WriteJSON(f)
type Trace = obs.Trace

// NewTrace returns a tracer holding up to capacity events (<= 0 selects
// the default of 16384). The ring grows as events arrive; once it holds
// capacity events, new events overwrite the oldest.
func NewTrace(capacity int) *Trace { return obs.NewTrace(capacity) }

// SimTraceAdapter maps step-simulator events onto trace slices: powered
// intervals, per-tile execution and checkpoint/resume/retry markers on
// the simulated clock. Use its Trace method as the VerifyTraced
// callback and call Close afterwards to terminate slices left open by
// interrupted runs.
type SimTraceAdapter = sim.TraceAdapter

// NewSimTraceAdapter returns an adapter recording the simulator's event
// stream onto tr (which may be nil, making the adapter a no-op):
//
//	ad := chrysalis.NewSimTraceAdapter(tr)
//	run, _ := chrysalis.VerifyTraced(spec, res, ad.Trace)
//	ad.Close()
func NewSimTraceAdapter(tr *Trace) *SimTraceAdapter { return sim.TraceTo(tr) }

// GenQuality is one generation's search-quality record: population
// statistics (best/mean/median objective, spread, genome diversity),
// the plateau detector's stagnation count and — for Pareto runs — the
// front-quality indicators (dominated hypervolume, front size, Schott
// spacing). Result.Quality carries one per generation, parallel to
// Result.History, and Spec.Search.OnQuality streams them live:
//
//	spec.Search.Patience = 10 // stop after 10 stagnant generations
//	spec.Search.OnQuality = func(q chrysalis.GenQuality) {
//		fmt.Printf("gen %d best %g stagnation %d\n", q.Gen, q.Best, q.Stagnation)
//	}
//	res, _ := chrysalis.Design(spec)
//	if res.StoppedEarly { /* the plateau policy cut the run short */ }
type GenQuality = search.GenQuality

// QualityHistory is a run's per-generation quality series.
type QualityHistory = search.QualityHistory

// Hypervolume2 computes the 2-D dominated hypervolume of a minimization
// front against a reference point — the front-quality scalar the NSGA
// convergence series reports per generation.
func Hypervolume2(front []FrontPoint, refX, refY float64) float64 {
	return search.Hypervolume2(front, refX, refY)
}

// FrontPoint is one member of a bi-objective front.
type FrontPoint = search.FrontPoint
