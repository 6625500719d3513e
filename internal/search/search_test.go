package search

import (
	"math"
	"testing"
	"testing/quick"
)

// sphere is a convex test objective with minimum 0 at the center.
func sphere(g []float64) float64 {
	var s float64
	for _, x := range g {
		d := x - 0.5
		s += d * d
	}
	return s
}

func TestProblemValidate(t *testing.T) {
	if err := (Problem{Dim: 0, Eval: sphere}).Validate(); err == nil {
		t.Error("zero dim should fail")
	}
	if err := (Problem{Dim: 2}).Validate(); err == nil {
		t.Error("nil eval should fail")
	}
	if err := (Problem{Dim: 2, Eval: sphere}).Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestGAConfigValidate(t *testing.T) {
	good := DefaultGA(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*GAConfig){
		func(c *GAConfig) { c.Population = 1 },
		func(c *GAConfig) { c.Generations = 0 },
		func(c *GAConfig) { c.MutRate = -0.1 },
		func(c *GAConfig) { c.MutRate = 1.1 },
		func(c *GAConfig) { c.MutSigma = 0 },
		func(c *GAConfig) { c.TournamentK = 0 },
		func(c *GAConfig) { c.TournamentK = 1000 },
		func(c *GAConfig) { c.Elite = -1 },
		func(c *GAConfig) { c.Elite = 40 },
	}
	for i, mut := range cases {
		c := DefaultGA(1)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGAFindsSphereMinimum(t *testing.T) {
	p := Problem{Dim: 4, Eval: sphere}
	res, err := RunGA(p, DefaultGA(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue > 0.01 {
		t.Fatalf("GA best %v, want < 0.01", res.BestValue)
	}
	if res.Evals != 40+40*30-2*30 { // pop + gens*(pop-elite)
		t.Logf("evals = %d", res.Evals) // informational; exact count depends on elitism
	}
	if len(res.History) != 30 {
		t.Fatalf("history length %d, want 30", len(res.History))
	}
}

func TestGADeterministicPerSeed(t *testing.T) {
	p := Problem{Dim: 3, Eval: sphere}
	a, err := RunGA(p, DefaultGA(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGA(p, DefaultGA(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestValue != b.BestValue {
		t.Fatal("same seed must reproduce the same result")
	}
	c, err := RunGA(p, DefaultGA(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestValue == c.BestValue && equal(a.Best, c.Best) {
		t.Fatal("different seeds should explore differently")
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGAHistoryMonotone(t *testing.T) {
	// With elitism the best-so-far never regresses.
	p := Problem{Dim: 5, Eval: sphere}
	res, err := RunGA(p, DefaultGA(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-15 {
			t.Fatalf("history regressed at %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
}

func TestGAHandlesInfeasible(t *testing.T) {
	// Objective that is infeasible on half the space.
	eval := func(g []float64) float64 {
		if g[0] < 0.5 {
			return math.Inf(1)
		}
		return sphere(g)
	}
	res, err := RunGA(Problem{Dim: 2, Eval: eval}, DefaultGA(11))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("GA should find the feasible half")
	}
	if res.Best[0] < 0.5 {
		t.Fatal("best genome should be feasible")
	}
}

func TestGABeatsRandomOnBudget(t *testing.T) {
	// The paper's premise for using a GA: with an equal evaluation
	// budget it should find better optima than random sampling on a
	// structured landscape.
	rosen := func(g []float64) float64 {
		x, y := g[0]*4-2, g[1]*4-2
		return 100*(y-x*x)*(y-x*x) + (1-x)*(1-x)
	}
	p := Problem{Dim: 2, Eval: rosen}
	ga, err := RunGA(p, DefaultGA(21))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunRandom(p, ga.Evals, 21)
	if err != nil {
		t.Fatal(err)
	}
	if ga.BestValue > rnd.BestValue*2 {
		t.Fatalf("GA (%v) much worse than random (%v) at equal budget", ga.BestValue, rnd.BestValue)
	}
}

func TestGAProgressCallback(t *testing.T) {
	cfg := DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 5
	var gens, lastEvals []int
	var bests []float64
	cfg.Progress = func(gen, evals int, best float64) {
		gens = append(gens, gen)
		lastEvals = append(lastEvals, evals)
		bests = append(bests, best)
	}
	res, err := RunGA(Problem{Dim: 3, Eval: sphere}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != cfg.Generations {
		t.Fatalf("progress called %d times, want %d", len(gens), cfg.Generations)
	}
	for i, g := range gens {
		if g != i+1 {
			t.Fatalf("gens = %v, want 1..%d", gens, cfg.Generations)
		}
		if i > 0 && lastEvals[i] <= lastEvals[i-1] {
			t.Fatalf("evals not increasing: %v", lastEvals)
		}
		if i > 0 && bests[i] > bests[i-1] {
			t.Fatalf("best not monotone: %v", bests)
		}
	}
	if lastEvals[len(lastEvals)-1] != res.Evals {
		t.Fatalf("final progress evals %d != result evals %d", lastEvals[len(lastEvals)-1], res.Evals)
	}
	if bests[len(bests)-1] != res.BestValue {
		t.Fatalf("final progress best %g != result best %g", bests[len(bests)-1], res.BestValue)
	}
}

func TestGAStopEndsSearchEarly(t *testing.T) {
	cfg := DefaultGA(1)
	cfg.Population = 10
	cfg.Generations = 1000
	calls := 0
	cfg.Progress = func(int, int, float64) { calls++ }
	cfg.Stop = func() bool { return calls >= 3 }
	res, err := RunGA(Problem{Dim: 3, Eval: sphere}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("ran %d generations after stop, want 3", calls)
	}
	if len(res.Best) != 3 || math.IsInf(res.BestValue, 1) {
		t.Fatalf("stopped search must still return the best so far: %+v", res)
	}
	if res.Evals >= 10*1000 {
		t.Fatal("stop did not shorten the search")
	}
}

func TestRunRandom(t *testing.T) {
	res, err := RunRandom(Problem{Dim: 3, Eval: sphere}, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 500 || len(res.History) != 500 {
		t.Fatalf("evals %d, history %d", res.Evals, len(res.History))
	}
	if res.BestValue > 0.1 {
		t.Fatalf("random best %v too poor", res.BestValue)
	}
	if _, err := RunRandom(Problem{Dim: 3, Eval: sphere}, 0, 1); err == nil {
		t.Fatal("zero samples should fail")
	}
}

func TestMapFloat(t *testing.T) {
	if got := MapFloat(0, 1, 30, false); got != 1 {
		t.Fatalf("MapFloat(0) = %v", got)
	}
	if got := MapFloat(1, 1, 30, false); got != 30 {
		t.Fatalf("MapFloat(1) = %v", got)
	}
	if got := MapFloat(0.5, 1, 30, false); got != 15.5 {
		t.Fatalf("MapFloat(0.5) = %v", got)
	}
	// Log scaling: midpoint of 1uF..10mF (4 decades) is 100uF.
	got := MapFloat(0.5, 1e-6, 10e-3, true)
	if math.Abs(got-1e-4) > 1e-9 {
		t.Fatalf("log midpoint = %v, want 1e-4", got)
	}
	// Clamping.
	if MapFloat(-1, 0, 10, false) != 0 || MapFloat(2, 0, 10, false) != 10 {
		t.Fatal("out-of-range u should clamp")
	}
}

func TestMapIntAndChoice(t *testing.T) {
	if MapInt(0, 1, 168) != 1 || MapInt(1, 1, 168) != 168 {
		t.Fatal("MapInt endpoints")
	}
	// Every value in range must be reachable and roughly uniform.
	counts := map[int]int{}
	for i := 0; i <= 1000; i++ {
		counts[MapInt(float64(i)/1000, 0, 4)]++
	}
	for v := 0; v <= 4; v++ {
		if counts[v] == 0 {
			t.Fatalf("value %d unreachable", v)
		}
	}
	if MapChoice(0.99, 3) != 2 || MapChoice(0, 3) != 0 {
		t.Fatal("MapChoice endpoints")
	}
	if MapInt(0.5, 5, 5) != 5 {
		t.Fatal("degenerate range")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point2{
		{X: 1, Y: 10, Tag: 0},
		{X: 2, Y: 5, Tag: 1},
		{X: 3, Y: 6, Tag: 2}, // dominated by (2,5)
		{X: 4, Y: 1, Tag: 3},
		{X: 4, Y: 2, Tag: 4}, // dominated by (4,1)
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	wantTags := []int{0, 1, 3}
	for i, p := range front {
		if p.Tag != wantTags[i] {
			t.Fatalf("front tags = %v, want %v", front, wantTags)
		}
	}
	if ParetoFront(nil) != nil {
		t.Fatal("empty input should give nil front")
	}
}

func TestParetoFrontInvariant(t *testing.T) {
	// Property: no front member dominates another front member.
	f := func(raw []uint16) bool {
		var pts []Point2
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point2{X: float64(raw[i] % 100), Y: float64(raw[i+1] % 100), Tag: i})
		}
		front := ParetoFront(pts)
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					return false
				}
			}
		}
		// Every original point is dominated-or-equal by some front member.
		for _, p := range pts {
			ok := false
			for _, f := range front {
				if f == p || Dominates(f, p) || (f.X == p.X && f.Y == p.Y) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDominates(t *testing.T) {
	a := Point2{X: 1, Y: 1}
	b := Point2{X: 2, Y: 2}
	if !Dominates(a, b) || Dominates(b, a) {
		t.Fatal("basic domination")
	}
	if Dominates(a, a) {
		t.Fatal("a point does not dominate itself")
	}
}
