package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"chrysalis/internal/obs"
)

// Span ranks, outermost first. A request's wall time is divided among
// layers by which ranked span is innermost at each instant; core, sim
// and wal are siblings that never overlap.
const (
	rClient     = iota // harness: POST, SSE wait, facade call wrapper
	rServe             // job timeline: admission, queue-wait
	rCore              // job "search" phase / chrysalis.Design
	rSim               // job "sim" phase (verify replay)
	rWAL               // job "wal-journal" phase
	rExploreRun        // explore run span
	rSearch            // GA run and generation spans
	rScore             // explore score / full-evaluate
	rLadderSet         // explore plan-cache ladder-set build
	rLadder            // intermittent build-ladder
	nRanks
)

// rankLayer names the repo module each rank belongs to.
var rankLayer = [nRanks]string{
	rClient: "serve", rServe: "serve", rCore: "core", rSim: "sim", rWAL: "wal",
	rExploreRun: "explore", rSearch: "search", rScore: "explore",
	rLadderSet: "explore", rLadder: "intermittent",
}

// span is one interval on the wall clock, in Unix microseconds.
type span struct {
	rank       int
	name       string
	start, end float64
}

// recorder keeps a traced run's spans in memory. A nil recorder (an
// untraced run) records nothing. Each request's spans are reduced to
// per-layer self times when the request is finished; the first
// keptRequests requests' spans are also kept for the trace file.
type recorder struct {
	mu      sync.Mutex
	dropped int64 // program spans lost to full rings
	gens    []float64
	ladders int
	kept    []keptSpan
	nkept   int
}

// The trace file holds the spans of the first keptRequests requests,
// stopping at keptSpans spans (one accelerator design records ~40k).
const (
	keptRequests = 20
	keptSpans    = 50000
)

type keptSpan struct {
	req int
	span
}

// finish reduces a request's spans to its per-layer self times.
func (r *recorder) finish(s *sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.self = selfTimes(s.tr)
	if r.nkept < keptRequests && len(r.kept) < keptSpans {
		r.nkept++
		for _, sp := range s.tr {
			r.kept = append(r.kept, keptSpan{s.r.idx, sp})
		}
	}
	s.tr = nil
}

// writeChrome writes the kept spans as a Chrome trace-event file (open
// it in Perfetto): one track per request, slices named by span and
// categorized by layer, on the Unix clock.
func (r *recorder) writeChrome(path string) error {
	type ev struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	evs := make([]ev, 0, len(r.kept))
	for _, k := range r.kept {
		evs = append(evs, ev{k.name, rankLayer[k.rank], "X", k.start, k.end - k.start, 1, k.req})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func (r *recorder) add(s *sample, rank int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.tr = append(s.tr, span{rank, name, float64(start.UnixNano()) / 1e3, float64(end.UnixNano()) / 1e3})
}

// programRank maps one of the program's own spans to its rank; ok is
// false for spans off the wall clock (the sim track) or unknown.
func programRank(track, name string) (int, bool) {
	switch track {
	case "job":
		switch name {
		case "admission", "queue-wait", "peer-hop":
			return rServe, true
		case "search":
			return rCore, true
		case "sim":
			return rSim, true
		case "wal-journal":
			return rWAL, true
		}
	case "search":
		return rSearch, true
	case "explore":
		switch {
		case strings.HasPrefix(name, "explore "):
			return rExploreRun, true
		case name == "score", name == "full-evaluate":
			return rScore, true
		case name == "ladder-build":
			return rLadderSet, true
		case name == "build-ladder":
			return rLadder, true
		}
	}
	return 0, false
}

// addProgram adds a program span ring's slices, shifted onto the Unix
// clock by anchor (the ring's time zero in Unix microseconds).
func (r *recorder) addProgram(s *sample, anchor float64, evs []obs.TraceEvent, dropped int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped += dropped
	for _, ev := range evs {
		if ev.Phase != "X" {
			continue
		}
		rank, ok := programRank(ev.Track, ev.Name)
		if !ok {
			continue
		}
		if ev.Track == "search" && strings.HasPrefix(ev.Name, "generation ") {
			r.gens = append(r.gens, ev.Dur/1e3)
		}
		if rank == rLadder {
			r.ladders++
		}
		s.tr = append(s.tr, span{rank, ev.Name, anchor + ev.TS, anchor + ev.TS + ev.Dur})
	}
}

// chromeTrace is the subset of a Chrome trace-event document the
// daemon's /trace export carries that layer attribution needs.
type chromeTrace struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		TS   float64         `json:"ts"`
		Dur  *float64        `json:"dur"`
		PID  int             `json:"pid"`
		TID  int             `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	Metadata map[string]any `json:"metadata"`
}

// addJobTrace parses a job's /trace export and adds its slices,
// aligning its clock to the Unix clock through the "search" phase that
// the job's /timeline reports in Unix microseconds.
func (r *recorder) addJobTrace(s *sample, traceJSON []byte, searchStartUS float64) error {
	var ct chromeTrace
	if err := json.Unmarshal(traceJSON, &ct); err != nil {
		return fmt.Errorf("trace %s: %w", s.jobID, err)
	}
	tracks := make(map[[2]int]string)
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			var args struct{ Name string }
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				return fmt.Errorf("trace %s: %w", s.jobID, err)
			}
			tracks[[2]int{ev.PID, ev.TID}] = args.Name
		}
	}
	var evs []obs.TraceEvent
	anchor, found := 0.0, false
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" || ev.Dur == nil {
			continue
		}
		track := tracks[[2]int{ev.PID, ev.TID}]
		if track == "job" && ev.Name == "search" {
			anchor, found = searchStartUS-ev.TS, true
		}
		evs = append(evs, obs.TraceEvent{Name: ev.Name, Phase: ev.Ph, Track: track, TS: ev.TS, Dur: *ev.Dur})
	}
	if !found {
		return fmt.Errorf("trace %s: no search phase to align on", s.jobID)
	}
	var dropped int64
	if v, ok := ct.Metadata["dropped_events"].(float64); ok {
		dropped = int64(v)
	}
	r.addProgram(s, anchor, evs, dropped)
	return nil
}

// selfTimes divides the wall time the spans cover among layers: at each
// instant the innermost (highest-ranked) active span's layer gets the
// time. This is each layer's span time minus the part its child spans
// cover, and it stays well defined when spans of one rank overlap
// (parallel search workers): overlapping time is counted once.
func selfTimes(spans []span) map[string]float64 {
	type edge struct {
		t     float64
		rank  int
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, sp := range spans {
		if sp.end > sp.start {
			edges = append(edges, edge{sp.start, sp.rank, +1}, edge{sp.end, sp.rank, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	var active [nRanks]int
	out := make(map[string]float64)
	for i, e := range edges {
		if i > 0 {
			if dt := e.t - edges[i-1].t; dt > 0 {
				for k := nRanks - 1; k >= 0; k-- {
					if active[k] > 0 {
						out[rankLayer[k]] += dt
						break
					}
				}
			}
		}
		active[e.rank] += e.delta
	}
	return out
}
