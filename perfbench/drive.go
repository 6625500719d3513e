package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"chrysalis"
	"chrysalis/internal/serve"
)

// sample is one request's measured life.
type sample struct {
	r request
	// sent and done bracket the client's view of the request.
	sent, done  time.Time
	submit      time.Duration // POST /v1/designs round trip
	jobID       string
	st          serve.JobStatus
	statusBytes int  // size of the terminal status JSON received
	reused      bool // coalesced or served from the result cache
	streamed    bool // an SSE stream was opened for the job
	doneLost    bool // the stream closed without a "done" event
	unencodable bool // the terminal status arrived as an encoding error
	err         error
	// out digests the returned design; the design itself is dropped.
	out outcome
	// traced marks a request whose spans were collected: tr holds its
	// harness and program spans until self holds their per-layer self
	// time (µs); phases is its job timeline.
	traced bool
	tr     []span
	self   map[string]float64
	phases []serve.TimelinePhase
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.sent) }

// outcome is what the correctness gate and the layer metrics need of a
// returned design. Samples keep it instead of the design, so the
// harness holds little memory of its own when the heap is measured.
type outcome struct {
	digest              [32]byte // of canon(result); zero without a result
	evals, generations  int
	hits, misses, warms int64
}

func outcomeOf(r *chrysalis.Result) outcome {
	if r == nil {
		return outcome{}
	}
	return outcome{digest: sha256.Sum256(canon(r)), evals: r.Evals, generations: len(r.Quality),
		hits: r.CacheHits, misses: r.CacheMisses, warms: r.WarmHits}
}

// settle digests the returned design and drops it.
func (s *sample) settle() {
	s.out = outcomeOf(s.st.Result)
	s.st.Result, s.st.Audit = nil, nil
}

// daemon is an embedded chrysalisd on a loopback listener plus the
// bounded HTTP client that drives it.
type daemon struct {
	srv    *chrysalis.Server
	hs     *http.Server
	served chan struct{}
	base   string
	walDir string
	tr     *http.Transport
	hc     *http.Client
}

// startDaemon builds the server (recovering the empty WAL directory),
// listens on 127.0.0.1 and opens a client limited to conns connections.
func startDaemon(opts chrysalis.ServerOptions, conns int) (*daemon, error) {
	srv, err := chrysalis.NewServer(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		walDir: opts.WALDir,
		tr: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	d.hc = &http.Client{Transport: d.tr}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop drains the daemon's jobs, closes the listener and waits for the
// serving goroutine, then removes the WAL directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	_ = d.hs.Shutdown(ctx)
	<-d.served
	d.tr.CloseIdleConnections()
	if d.walDir != "" {
		_ = os.RemoveAll(d.walDir)
	}
}

// get fetches a path and returns its body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("GET %s: %w", path, errNotFound)
	}
	return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
}

var errNotFound = errors.New("not found")

// scrape reads /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body)), nil
}

// design submits one request and waits for its terminal status: from
// the POST response when the design was served from the cache, else
// from the job's SSE "done" event, else (stream closed without one)
// from a final GET.
func (d *daemon) design(s *sample, rec *recorder) {
	defer s.settle()
	body, _ := json.Marshal(s.r.req) // DesignRequest always marshals
	s.sent = time.Now()
	resp, err := d.hc.Post(d.base+"/v1/designs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	posted := time.Now()
	s.submit = posted.Sub(s.sent)
	rec.add(s, rClient, "POST /v1/designs", s.sent, posted)
	if err != nil {
		s.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
		return
	}
	if err := json.Unmarshal(raw, &s.st); err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return
	}
	s.jobID = s.st.ID
	s.reused = resp.StatusCode == http.StatusOK
	if terminal(s.st.State) {
		s.done, s.statusBytes = posted, len(raw)
		return
	}
	s.streamed = true
	waitStart := time.Now()
	data, err := d.awaitDone(s.jobID)
	if err == nil && data == nil {
		s.doneLost = true
		data, err = d.get("/v1/designs/" + s.jobID)
	}
	s.done = time.Now()
	rec.add(s, rClient, "await done", waitStart, s.done)
	if err != nil {
		s.err = err
		return
	}
	s.statusBytes = len(data)
	s.st = serve.JobStatus{}
	if json.Unmarshal(data, &s.st) != nil || s.st.ID == "" {
		// The daemon could not encode the job's status (it renders an
		// {"error": …} object instead); the timeline still names the
		// terminal state.
		s.unencodable = true
		s.st = serve.JobStatus{ID: s.jobID}
		var tl serve.Timeline
		body, err := d.get("/v1/designs/" + s.jobID + "/timeline")
		if err == nil {
			err = json.Unmarshal(body, &tl)
		}
		if err != nil {
			s.err = fmt.Errorf("status of %s unreadable (%.200s): %w", s.jobID, data, err)
			return
		}
		s.st.State = tl.State
	}
	if !terminal(s.st.State) {
		s.err = fmt.Errorf("job %s ended its stream in state %s", s.jobID, s.st.State)
	}
}

// awaitDone reads a job's SSE stream to its end and returns the "done"
// event's payload, or nil when the stream closed without one.
func (d *daemon) awaitDone(id string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + "/v1/designs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event string
	var done []byte
	// Read to EOF, past "done", so the keep-alive connection is reused.
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")) && event == "done":
			done = append([]byte(nil), line[len("data: "):]...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return done, nil
}

func terminal(s serve.JobState) bool {
	return s == serve.JobDone || s == serve.JobFailed || s == serve.JobCancelled
}

// runClosed keeps clients requests outstanding: each client draws the
// stream's next request as soon as its previous one finishes, until do
// declines one (do reports whether it ran the request).
func runClosed(st *stream, clients int, do func(*sample) bool) []*sample {
	var mu sync.Mutex
	var out []*sample
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				s := &sample{r: st.get(next)}
				next++
				mu.Unlock()
				if !do(s) {
					return
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// designLocal runs one request through chrysalis.Design with default
// Workers (all cores). A traced run attaches a span ring to the search.
func designLocal(s *sample, rec *recorder) {
	spec, err := specOf(s.r.req)
	if err != nil {
		s.err = err
		return
	}
	var tr *chrysalis.Trace
	if rec != nil {
		tr = chrysalis.NewTrace(libTraceEvents)
		spec.Search.Trace = tr
	}
	s.sent = time.Now()
	res, err := chrysalis.Design(spec)
	s.done = time.Now()
	if err != nil && !errors.Is(err, errNoFeasible) {
		s.err = err
	}
	s.st.State, s.st.Result = serve.JobDone, &res
	if err != nil {
		s.st.State, s.st.Result, s.st.Error = serve.JobFailed, nil, err.Error()
	}
	s.settle()
	if rec != nil {
		rec.add(s, rCore, "chrysalis.Design", s.sent, s.done)
		rec.addProgram(s, tr.AnchorUnixMicros(), tr.Events(), tr.Dropped())
		rec.finish(s)
	}
}

// libTraceEvents sizes the span ring of a traced facade design so a
// default-budget accelerator search fits without overwriting.
const libTraceEvents = 1 << 18
