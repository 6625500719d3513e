package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"chrysalis"
	"chrysalis/internal/explore"
	"chrysalis/internal/serve"
)

var errNoFeasible = explore.ErrNoFeasibleDesign

// canon renders a design for bit-identity comparison, with the fields
// that legitimately vary across worker counts and cache tiers zeroed.
func canon(r *chrysalis.Result) []byte {
	if r == nil {
		return nil
	}
	c := *r
	c.Workers, c.CacheHits, c.CacheMisses, c.WarmHits = 0, 0, 0, 0
	b, _ := json.Marshal(c) // results hold JSON-sanitized floats
	return b
}

// noFeasible reports whether a failed job may have failed only because
// its search found no feasible design: its error says so, or its status
// was unencodable (the daemon cannot render the +Inf best objective of
// an all-infeasible search), so only the recomputation can tell.
func noFeasible(s *sample) bool {
	return s.st.State == serve.JobFailed && (s.unencodable || strings.Contains(s.st.Error, errNoFeasible.Error()))
}

// gate checks every measured request and recomputes the first gateN
// distinct ones (plus every no-feasible-design failure) through
// chrysalis.Design with a serial search and no warm tier. It returns
// one line per failed request; each request fails at most once.
func gate(samples []*sample, gateN int) []string {
	byIdx := make(map[int]*sample, len(samples))
	for _, s := range samples {
		byIdx[s.r.idx] = s
	}
	var bad []string
	fail := func(s *sample, format string, args ...any) {
		bad = append(bad, fmt.Sprintf("request %d (%s): %s", s.r.idx, s.r.req.Workload, fmt.Sprintf(format, args...)))
	}
	recomputed := 0
	for _, s := range samples {
		switch {
		case s.err != nil:
			fail(s, "%v", s.err)
			continue
		case s.st.State != serve.JobDone && !noFeasible(s):
			fail(s, "state %s: %s", s.st.State, s.st.Error)
			continue
		case s.r.req.Verify && s.st.State == serve.JobDone && (s.st.Verify == nil || !s.st.Verify.Completed):
			fail(s, "verify replay missing or incomplete")
			continue
		}
		if s.r.repeatOf >= 0 {
			o, ok := byIdx[s.r.repeatOf]
			if ok && (o.st.State != s.st.State || o.out.digest != s.out.digest) {
				fail(s, "repeat of request %d returned a different result", o.r.idx)
			}
			continue
		}
		if recomputed >= gateN && !noFeasible(s) {
			continue
		}
		recomputed++
		if msg := recompute(s); msg != "" {
			fail(s, "%s", msg)
		}
	}
	return bad
}

// recompute reruns one request through the facade, serially and
// without a warm tier, and compares it with what was returned.
func recompute(s *sample) string {
	spec, err := specOf(s.r.req)
	if err != nil {
		return err.Error()
	}
	spec.Search.Workers = -1
	res, err := chrysalis.Design(spec)
	if noFeasible(s) {
		if !errors.Is(err, errNoFeasible) {
			return fmt.Sprintf("no feasible design, but the recomputation returned %v", err)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("recomputation failed: %v", err)
	}
	if outcomeOf(&res).digest != s.out.digest {
		return "result differs from the serial, cold recomputation"
	}
	if !s.r.req.Verify {
		return ""
	}
	run, err := chrysalis.Verify(spec, res)
	if err != nil {
		return fmt.Sprintf("verify recomputation failed: %v", err)
	}
	v := s.st.Verify
	if run.Completed != v.Completed || float64(run.E2ELatency) != v.E2ELatencyS ||
		run.PowerCycles != v.PowerCycles || run.TilesDone != v.TilesDone {
		return "verify replay differs from the recomputation"
	}
	return ""
}
