package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
)

// TestRetainedHeapPerFinishedJob pins what a finished MSP verify job
// keeps on the heap while its record is retained: result, simulator
// summary, flight recorder, SSE history and span ring. The span ring
// grows with the events a job records, so a job that records a few
// hundred spans must not hold a full DefaultTraceEvents ring.
func TestRetainedHeapPerFinishedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 70 design jobs")
	}
	const (
		jobs     = 70
		maxKiB   = 192
		maxJobs  = 128
		firstKey = 1000
	)
	workloads := []string{"har", "cifar10", "kws", "simpleconv", "mnist-cnn", "fc", "cnn_s"}
	s, ts := newTestServer(t, Options{Workers: 1, MaxJobs: maxJobs})
	run := func(i int) {
		req := DesignRequest{Workload: workloads[i%len(workloads)], Budget: 100, Seed: int64(firstKey + i), Verify: true}
		resp, body := postJSON(t, ts.URL+"/v1/designs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		j, ok := s.mgr.get(st.ID)
		if !ok {
			t.Fatalf("job %s not retained", st.ID)
		}
		<-j.done
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run(jobs) // warm up the server's lazily built state
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		run(i)
	}
	after := liveHeap()
	perJob := (float64(after) - float64(before)) / jobs / 1024
	t.Logf("retained heap per finished MSP verify job: %.0f KiB", perJob)
	if perJob > maxKiB {
		t.Errorf("a finished MSP verify job retains %.0f KiB, want <= %d KiB", perJob, maxKiB)
	}
	runtime.KeepAlive(s)
}
