package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"chrysalis"
	"chrysalis/internal/serve"
)

// request is one generated design request: the daemon wire form plus
// what the generator knows about how it relates to earlier requests.
type request struct {
	idx int
	req serve.DesignRequest
	// repeatOf is the stream index of the request this one repeats
	// byte for byte, or -1.
	repeatOf int
	// nearDup marks a request that is not an exact repeat but shares
	// workload, seed and objective with an earlier one (so the same
	// initial population and, often, the same search).
	nearDup bool
}

// stream is a deterministic, seeded request generator: the same seed
// yields the same requests in the same order, however many are drawn.
type stream struct {
	rng  *rand.Rand
	next func(s *stream) serve.DesignRequest
	// repeatShare is the probability that a request exactly repeats one
	// of the last repeatWindow distinct requests.
	repeatShare float64

	reqs     []request
	distinct []int // stream indices of non-repeat requests
	seen     map[string]bool
	perm     []int // current permutation block over the workload list
}

func newStream(seed int64, next func(*stream) serve.DesignRequest, repeatShare float64) *stream {
	return &stream{
		rng:         rand.New(rand.NewSource(seed)),
		next:        next,
		repeatShare: repeatShare,
		seen:        make(map[string]bool),
	}
}

// repeatWindow keeps exact repeats within the result cache's reach
// (128 entries by default), so a repeat is served from the cache.
const repeatWindow = 64

// pick returns the next index of a seeded permutation of [0, n), so
// every block of n requests takes each index exactly once and the mix
// does not drift with the seed. A stream always picks with the same n.
func (s *stream) pick(n int) int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(n)
	}
	i := s.perm[0]
	s.perm = s.perm[1:]
	return i
}

// get returns request i, generating the stream up to it.
func (s *stream) get(i int) request {
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.generate(len(s.reqs)))
	}
	return s.reqs[i]
}

func (s *stream) generate(idx int) request {
	r := request{idx: idx, repeatOf: -1}
	if len(s.distinct) > 0 && s.rng.Float64() < s.repeatShare {
		w := s.distinct
		if len(w) > repeatWindow {
			w = w[len(w)-repeatWindow:]
		}
		r.repeatOf = w[s.rng.Intn(len(w))]
		r.req = s.reqs[r.repeatOf].req
	} else {
		r.req = s.next(s)
		s.distinct = append(s.distinct, idx)
		id := fmt.Sprintf("%s/%s/%s/%d", r.req.Workload, r.req.Platform, r.req.Objective, r.req.Seed)
		r.nearDup = s.seen[id]
		s.seen[id] = true
	}
	return r
}

// shares reports the measured mix of the first n requests.
func (s *stream) shares(n int) map[string]float64 {
	var rep, near, ver, nsga int
	for _, r := range s.reqs[:n] {
		if r.repeatOf >= 0 {
			rep++
		}
		if r.nearDup {
			near++
		}
		if r.req.Verify {
			ver++
		}
		if r.req.Algorithm == "nsga" {
			nsga++
		}
	}
	d := float64(max(n, 1))
	return map[string]float64{
		"gen.repeat_share": float64(rep) / d, "gen.near_dup_share": float64(near) / d,
		"gen.verify_share": float64(ver) / d, "gen.nsga_share": float64(nsga) / d,
	}
}

// digestLen is how many requests the stamp's stream digest covers, a
// fixed prefix so runs of one seed agree however many they consumed.
const digestLen = 1000

// digest hashes the first digestLen requests of a fresh stream with the
// same seed and generator; equal seeds give equal digests.
func digest(seed int64, next func(*stream) serve.DesignRequest, repeatShare float64) string {
	s := newStream(seed, next, repeatShare)
	s.get(digestLen - 1)
	h := sha256.New()
	for _, r := range s.reqs {
		b, _ := json.Marshal(r.req) // DesignRequest always marshals
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// seedSpace bounds fresh search seeds; distinct draws give distinct
// cache keys with overwhelming probability.
const seedSpace = 1 << 40

var (
	// mspWorkloads lists cifar10, the one heavy MSP workload, twice: it
	// then makes up a fifth of all requests, so p90 falls inside its
	// latency mode instead of on the mode's lower edge.
	mspWorkloads = []string{"har", "cifar10", "cifar10", "kws", "simpleconv", "mnist-cnn", "fc", "cnn_s"}
	// accelWorkloads lists resnet18 twice. In cost order (alexnet,
	// resnet18, vgg16, mobilenet-vww) the median then falls inside
	// resnet18's latency mode and p90 inside mobilenet-vww's, not on the
	// edge between two modes where it would jump with the draw.
	accelWorkloads = []string{"alexnet", "resnet18", "resnet18", "vgg16", "mobilenet-vww"}
)

// smallMSP draws a distinct, small MSP430 verify job with mixed
// objectives and a share of nsga and patience jobs.
func smallMSP(s *stream) serve.DesignRequest {
	r := serve.DesignRequest{
		Workload: mspWorkloads[s.pick(len(mspWorkloads))],
		Platform: "msp430",
		Budget:   80 + 20*s.rng.Intn(3),
		Seed:     1 + s.rng.Int63n(seedSpace),
		Verify:   true,
	}
	switch u := s.rng.Float64(); {
	case u < 0.25:
		r.Objective = "lat"
	case u < 0.5:
		r.Objective = "sp"
	default:
		r.Objective = "lat*sp"
	}
	if s.rng.Float64() < 0.15 {
		r.Algorithm = "nsga"
	}
	if s.rng.Float64() < 0.2 {
		r.Patience = 3
	}
	return r
}

// coldAccel draws an accelerator design on a heavy Table V network at
// the library's default budget with a fresh seed.
func coldAccel(s *stream) serve.DesignRequest {
	return serve.DesignRequest{
		Workload:  accelWorkloads[s.pick(len(accelWorkloads))],
		Platform:  "accel",
		Objective: "lat*sp",
		Seed:      1 + s.rng.Int63n(seedSpace),
	}
}

// serve-accel-warm runs 36 distinct searches: 3 networks × 3 seeds ×
// 2 objectives × 2 panel bounds. Requests sharing all four run the same
// search, so they need the same plan ladders.
var (
	warmWorkloads  = []string{"resnet18", "alexnet", "vgg16"}
	warmObjectives = []string{"lat", "lat*sp"}
	warmPanels     = []float64{20, 30}
)

const warmPoolSeeds = 3

// daemonBudget is chrysalisd's default search budget, spelled out so
// the facade recomputation in the correctness gate runs the same
// search (the library default is larger).
const daemonBudget = 400

// warmAccel draws a near-duplicate accelerator job at the daemon's
// default budget. The searches come in seeded permutation blocks, so
// the warm tier sees the same reuse pattern whatever the seed. The
// latency bound, which neither objective reads, is drawn from a wide
// range, so most requests are new cache keys (the result cache cannot
// answer them) that repeat a search an earlier request ran (the warm
// tier can).
func warmAccel(s *stream) serve.DesignRequest {
	i := s.pick(len(warmWorkloads) * warmPoolSeeds * len(warmObjectives) * len(warmPanels))
	r := serve.DesignRequest{Platform: "accel", Budget: daemonBudget, MaxLatencyS: float64(10 + s.rng.Intn(200))}
	r.Workload, i = warmWorkloads[i%len(warmWorkloads)], i/len(warmWorkloads)
	r.Seed, i = int64(1+i%warmPoolSeeds), i/warmPoolSeeds
	r.Objective, i = warmObjectives[i%len(warmObjectives)], i/len(warmObjectives)
	r.MaxPanelCM2 = warmPanels[i]
	return r
}

// specOf maps a wire request onto the library Spec the daemon builds
// from it (after its defaults), for the facade path and the
// correctness gate.
func specOf(r serve.DesignRequest) (chrysalis.Spec, error) {
	spec := chrysalis.Spec{WorkloadName: r.Workload}
	switch r.Platform {
	case "", "msp430":
		spec.Platform = chrysalis.MSP430
	case "accel":
		spec.Platform = chrysalis.Accelerator
	default:
		return spec, fmt.Errorf("unknown platform %q", r.Platform)
	}
	switch r.Objective {
	case "lat":
		spec.Objective = chrysalis.MinimizeLatency
	case "sp":
		spec.Objective = chrysalis.MinimizeSP
	case "", "lat*sp":
		spec.Objective = chrysalis.MinimizeLatTimesSP
	default:
		return spec, fmt.Errorf("unknown objective %q", r.Objective)
	}
	spec.MaxPanel = chrysalis.AreaCM2(r.MaxPanelCM2)
	spec.MaxLatency = chrysalis.Seconds(r.MaxLatencyS)
	spec.Search.Algorithm = r.Algorithm
	spec.Search.Budget = r.Budget
	spec.Search.Seed = r.Seed
	spec.Search.Patience = r.Patience
	return spec, nil
}
