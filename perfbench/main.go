// Command perfbench is the repository benchmark: one seeded,
// single-process harness that drives CHRYSALIS through its two public
// entry points — the embedded daemon (chrysalis.NewServer on a loopback
// listener) and the library facade (chrysalis.Design) — measures
// end-to-end latency, throughput, CPU and heap per design, checks every
// result, and in a traced run breaks the time down by layer.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it stamps the
// environment and the request mix. See NOTES.md for the workloads and
// how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"chrysalis"
	"chrysalis/internal/serve"
)

// workload is one benchmark traffic mix.
type workload struct {
	name    string
	clients int
	// daemon selects the HTTP path; otherwise requests go through
	// chrysalis.Design. wal gives the daemon a fresh WAL directory.
	// The WAL runs on serve-accel-warm, not serve-small: on a shared
	// disk its fsync and whole-table snapshots (taken under the job
	// manager's lock) stall the daemon for tens of milliseconds, which
	// 30 ms jobs absorb and 3 ms jobs do not.
	daemon, wal bool
	opts        func(walDir string) chrysalis.ServerOptions
	gen         func(*stream) serve.DesignRequest
	repeatShare float64
	// gateN is how many distinct requests the correctness gate
	// recomputes through the facade.
	gateN  int
	warmup []serve.DesignRequest
	// prefill is how many requests of a separate warm-up stream a daemon
	// runs before the window, so retained job records, the result cache
	// and the warm tier are at their steady size when timing starts.
	prefill int
}

// Retained job records are bounded below the default 1024: each record
// holds a span ring of at least 1.25 MiB (an accelerator job fills it,
// about 3 MiB with span attributes), so at the default serve-small held
// 1.4 GiB live and peaked at 2.7 GiB resident, too much for the small
// shared machines the benchmark runs on. serve-accel-warm keeps fewer,
// which also keeps its WAL snapshots (the whole table, written and
// fsynced under the job manager's lock) small.
const (
	serveSmallMaxJobs = 128
	warmMaxJobs       = 32
)

// warmCacheMB sizes serve-accel-warm's warm tier to hold about half of
// the distinct ladder sets its request stream needs (180 MiB measured
// with an unbounded tier after prefill and a 10 s window).
const warmCacheMB = 90

// warmup requests use seeds outside every generator's range, so they
// never pre-answer a measured request.
const warmSeed = seedSpace + 7

var workloads = []workload{
	{
		name: "serve-small", clients: 2, daemon: true,
		opts: func(string) chrysalis.ServerOptions {
			return chrysalis.ServerOptions{MaxJobs: serveSmallMaxJobs}
		},
		gen:         smallMSP,
		repeatShare: 0.2,
		gateN:       24,
		prefill:     serveSmallMaxJobs + 64,
		warmup: []serve.DesignRequest{
			{Workload: "har", Budget: 60, Seed: warmSeed, Verify: true},
			{Workload: "kws", Budget: 60, Seed: warmSeed, Verify: true, Algorithm: "nsga"},
		},
	},
	{
		name: "accel-cold", clients: 1,
		gen:    coldAccel,
		gateN:  3,
		warmup: []serve.DesignRequest{{Workload: "cifar10", Platform: "accel", Budget: 200, Seed: warmSeed}},
	},
	{
		name: "serve-accel-warm", clients: 2, daemon: true, wal: true,
		opts: func(dir string) chrysalis.ServerOptions {
			return chrysalis.ServerOptions{WALDir: dir, WarmCacheMB: warmCacheMB, MaxJobs: warmMaxJobs}
		},
		gen:     warmAccel,
		gateN:   4,
		prefill: 96,
		warmup: []serve.DesignRequest{
			{Workload: "cifar10", Platform: "accel", Budget: 200, Seed: warmSeed},
			{Workload: "har", Budget: 60, Seed: warmSeed},
		},
	},
}

// setupReps is how many times a run sets up (and, but for the last,
// tears down) its daemon; setup_s is the median. The facade's set-up is
// one small design, so it is repeated more to steady its median.
const (
	setupReps        = 3
	librarySetupReps = 9
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-small, accel-cold or serve-accel-warm")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case w.clients > runtime.NumCPU():
		return fmt.Errorf("%s needs %d client goroutines but nproc is %d", name, w.clients, runtime.NumCPU())
	}
	window := time.Duration(seconds) * time.Second

	var phases []*phase
	if trace == 1 {
		// The untraced half is the reference the tracing overhead is
		// measured against: same seed, same requests, fresh set-up.
		base, err := runPhase(w, seed, window, false)
		if err != nil {
			return err
		}
		phases = append(phases, base)
	}
	p, err := runPhase(w, seed, window, trace == 1)
	if err != nil {
		return err
	}
	phases = append(phases, p)

	res := result{Metrics: make(map[string]metric)}
	for _, ph := range phases {
		res.Attempted += len(ph.samples)
		res.Failed += len(ph.bad)
		for _, b := range ph.bad {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect:", b)
		}
	}
	res.Correct = res.Failed == 0
	st := p.stamp(w, seed)
	if trace == 1 {
		p.layerMetrics(phases[0], res.Metrics)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := p.rec.writeChrome(path); err != nil {
			return err
		}
		st["trace_file"] = path
	} else {
		p.e2eMetrics(res.Metrics)
	}
	stamp, err := json.Marshal(st)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	fmt.Println(string(out))
	return nil
}

// phase is one measured run of a workload.
type phase struct {
	w       *workload
	seed    int64
	st      *stream
	samples []*sample
	setup   []time.Duration
	// span of the measured window: its start to the last completion.
	start, end   time.Time
	cpu          time.Duration
	rt0, rt1     rtSnapshot
	host0, host1 hostCPU
	heapMiB      float64
	jobRecords   float64
	m0, m1       map[string]float64 // /metrics before and after the window
	rec          *recorder          // nil in an untraced run
	bad          []string
	evalNS       float64
}

func runPhase(w *workload, seed int64, window time.Duration, traced bool) (*phase, error) {
	p := &phase{w: w, seed: seed, st: newStream(seed, w.gen, w.repeatShare)}
	if traced {
		p.rec = &recorder{}
	}
	var err error
	if w.daemon {
		err = p.runDaemon(window)
	} else {
		err = p.runLibrary(window)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		p.evalNS = dataflowEvaluateNS()
	}
	p.bad = gate(p.samples, w.gateN)
	return p, nil
}

// benchDir is the checkout-local scratch directory for WAL files.
var benchDir = filepath.Join(".bench_build", "tmp")

// setupDaemon builds the daemon (on a fresh WAL directory when the
// workload journals) and runs the warm-up requests and the prefill
// through it.
func (p *phase) setupDaemon() (*daemon, error) {
	var dir string
	if p.w.wal {
		if err := os.MkdirAll(benchDir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(benchDir, "wal-"); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(p.w.opts(dir), p.w.clients)
	if err != nil {
		if dir != "" {
			_ = os.RemoveAll(dir)
		}
		return nil, err
	}
	warm := make([]*sample, 0, len(p.w.warmup))
	for i, req := range p.w.warmup {
		s := &sample{r: request{idx: -1 - i, req: req, repeatOf: -1}}
		d.design(s, nil)
		warm = append(warm, s)
	}
	if p.w.prefill > 0 {
		st := newStream(p.seed^prefillSeed, p.w.gen, p.w.repeatShare)
		var n atomic.Int64
		warm = append(warm, runClosed(st, p.w.clients, func(s *sample) bool {
			if n.Add(1) > int64(p.w.prefill) {
				return false
			}
			d.design(s, nil)
			return true
		})...)
	}
	for _, s := range warm {
		if s.err == nil && s.st.State != serve.JobDone {
			s.err = fmt.Errorf("state %s: %s", s.st.State, s.st.Error)
		}
		if s.err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return d, nil
}

// prefillSeed derives the warm-up stream's seed from the run's, so the
// prefill never replays the measured requests.
const prefillSeed = 0x5eed_f111

func (p *phase) runDaemon(window time.Duration) error {
	var d *daemon
	for k := 0; k < setupReps; k++ {
		if d != nil {
			d.stop()
		}
		t := time.Now()
		var err error
		if d, err = p.setupDaemon(); err != nil {
			return err
		}
		p.setup = append(p.setup, time.Since(t))
	}
	defer d.stop()
	var err error
	if p.m0, err = d.scrape(); err != nil {
		return err
	}
	c0 := p.startWindow()
	end := time.Now().Add(window)
	p.samples = runClosed(p.st, p.w.clients, func(s *sample) bool {
		if time.Now().After(end) {
			return false
		}
		d.design(s, p.rec)
		return true
	})
	p.finishWindow(c0)
	if p.m1, err = d.scrape(); err != nil {
		return err
	}
	p.jobRecords = p.m1["chrysalisd_job_records"]
	if p.rec != nil {
		return p.collectJobTraces(d)
	}
	return nil
}

func (p *phase) runLibrary(window time.Duration) error {
	for k := 0; k < librarySetupReps; k++ {
		t := time.Now()
		s := &sample{r: request{idx: -1, req: p.w.warmup[0], repeatOf: -1}}
		designLocal(s, nil)
		if s.err != nil || s.st.State != serve.JobDone {
			return fmt.Errorf("warm-up: %v %s", s.err, s.st.Error)
		}
		p.setup = append(p.setup, time.Since(t))
	}
	c0 := p.startWindow()
	end := time.Now().Add(window)
	p.samples = runClosed(p.st, p.w.clients, func(s *sample) bool {
		if time.Now().After(end) {
			return false
		}
		designLocal(s, p.rec)
		s.traced = p.rec != nil
		return true
	})
	p.finishWindow(c0)
	return nil
}

// startWindow collects the garbage the set-up left behind (the earlier
// daemons, the warm-up designs), so every window starts from the same
// heap, then opens the window and returns the process CPU time so far.
func (p *phase) startWindow() time.Duration {
	runtime.GC()
	c0 := cpuTime()
	p.rt0 = readRuntime()
	p.host0 = readHostCPU()
	p.start = time.Now()
	return c0
}

// finishWindow closes the measured window once every request is done
// and takes the CPU, runtime and live-heap readings.
func (p *phase) finishWindow(c0 time.Duration) {
	p.cpu = cpuTime() - c0
	p.rt1 = readRuntime()
	p.host1 = readHostCPU()
	p.end = p.start
	for _, s := range p.samples {
		if s.done.After(p.end) {
			p.end = s.done
		}
	}
	p.heapMiB = liveHeapMiB()
}

// collectJobTraces fetches the timeline and span export of every job
// the daemon still retains after the window (it prunes the oldest
// records beyond MaxJobs) and adds them to the request's spans.
func (p *phase) collectJobTraces(d *daemon) error {
	for _, s := range p.samples {
		if s.err != nil || s.jobID == "" {
			continue
		}
		body, err := d.get("/v1/designs/" + s.jobID + "/timeline")
		if errors.Is(err, errNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		s.traced = true
		if err := p.addJob(d, s, body); err != nil {
			return err
		}
		p.rec.finish(s)
	}
	return nil
}

// addJob adds a job's timeline phases and span export to its request.
// A request answered by another request's job (coalesced or cached)
// keeps only its own client spans.
func (p *phase) addJob(d *daemon, s *sample, timeline []byte) error {
	if s.reused {
		return nil
	}
	var tl serve.Timeline
	if err := json.Unmarshal(timeline, &tl); err != nil {
		return fmt.Errorf("timeline %s: %w", s.jobID, err)
	}
	s.phases = tl.Phases
	for _, ph := range tl.Phases {
		if ph.Name != "search" {
			continue
		}
		body, err := d.get("/v1/designs/" + s.jobID + "/trace")
		if err != nil {
			return err
		}
		return p.rec.addJobTrace(s, body, float64(ph.StartUnixUS))
	}
	return nil // failed before the search ran
}

// completed returns the requests that finished without error.
func (p *phase) completed() []*sample {
	var out []*sample
	for _, s := range p.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func (p *phase) latencies() []float64 {
	var out []float64
	for _, s := range p.completed() {
		out = append(out, ms(s.latency()))
	}
	return out
}

// windowParts is how many consecutive parts of the window the latency
// quantiles are taken over.
const windowParts = 3

// latencyQuantile is the median, over the thirds of the window, of each
// third's q-quantile of latency. The thirds hold equal numbers of
// requests in the order they were sent. A slow spell of the shared
// machine that covers less than a third of the window then moves one
// third's figure, not the reported one; a pooled p90 would take most
// of its tail from that spell.
func (p *phase) latencyQuantile(q float64) float64 {
	done := p.completed()
	sort.Slice(done, func(i, j int) bool { return done[i].sent.Before(done[j].sent) })
	var parts []float64
	for k := 0; k < windowParts; k++ {
		var lat []float64
		for _, s := range done[k*len(done)/windowParts : (k+1)*len(done)/windowParts] {
			lat = append(lat, ms(s.latency()))
		}
		parts = append(parts, quantile(lat, q))
	}
	return quantile(parts, 0.5)
}

func median(ds []time.Duration) float64 {
	var v []float64
	for _, d := range ds {
		v = append(v, d.Seconds())
	}
	return quantile(v, 0.5)
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func (p *phase) e2eMetrics(m map[string]metric) {
	done := float64(len(p.completed()))
	m["setup_s"] = metric{median(p.setup), "s"}
	m["latency_p50_ms"] = metric{p.latencyQuantile(0.50), "ms"}
	m["latency_p90_ms"] = metric{p.latencyQuantile(0.90), "ms"}
	m["throughput_per_s"] = metric{ratio(done, p.end.Sub(p.start).Seconds()), "1/s"}
	m["cpu_ms_per_design"] = metric{ratio(ms(p.cpu), done), "ms"}
	m["heap_live_mib"] = metric{p.heapMiB, "MiB"}
	m["success_ratio"] = metric{ratio(float64(len(p.samples)-len(p.bad)), float64(len(p.samples))), "ratio"}
}

// stamp records the environment and the request mix of a run.
func (p *phase) stamp(w *workload, seed int64) map[string]any {
	lost, opened, unenc := p.sseCounts()
	return map[string]any{
		"workload": w.name, "seed": seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(), "go": runtime.Version(),
		"commit": commit(), "clients": w.clients,
		"requests": len(p.samples), "stream_digest": digest(seed, w.gen, w.repeatShare),
		"shares": p.st.shares(len(p.samples)), "latency_p99_ms": quantile(p.latencies(), 0.99),
		"sse_done_lost": lost, "sse_streams_opened": opened, "status_unencodable": unenc,
		"incorrect": len(p.bad), "peak_rss_mib": peakRSSMiB(),
		"steal_pct": p.host1.share(p.host0, hostSteal), "iowait_pct": p.host1.share(p.host0, hostIOWait),
	}
}

// sseCounts counts the SSE streams opened, those that closed without a
// "done" event, and terminal statuses the daemon could not encode.
func (p *phase) sseCounts() (lost, opened, unencodable int) {
	for _, s := range p.samples {
		if s.streamed {
			opened++
		}
		if s.doneLost {
			lost++
		}
		if s.unencodable {
			unencodable++
		}
	}
	return lost, opened, unencodable
}

// commit names the checked-out commit from .git when there is one;
// otherwise the source is identified by the stamp's stream of results.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}
