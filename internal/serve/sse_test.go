package serve

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"chrysalis/internal/sim"
	"chrysalis/internal/units"
)

// TestStreamNeverLosesDone publishes far more events than a subscriber
// channel or the replay history holds, and checks that the terminal
// event still arrives last: for a subscriber that never drains while
// the events are published, and for late subscribers joining after the
// history overflowed (before and after the stream finished).
func TestStreamNeverLosesDone(t *testing.T) {
	const events = maxStreamHistory + subscriberSlack + 100
	lastOf := func(ch <-chan sseEvent) (last sseEvent, n int) {
		for ev := range ch {
			last, n = ev, n+1
		}
		return last, n
	}
	t.Run("stalled subscriber", func(t *testing.T) {
		s := newStream()
		ch, cancel := s.subscribe()
		defer cancel()
		for i := 0; i < events; i++ {
			s.publish("progress", i)
		}
		s.finish("done", map[string]string{"state": "done"})
		last, n := lastOf(ch)
		if last.name != "done" {
			t.Fatalf("last of %d events is %q, want done", n, last.name)
		}
	})
	t.Run("late subscriber", func(t *testing.T) {
		s := newStream()
		for i := 0; i < maxStreamHistory+10; i++ {
			s.publish("progress", i)
		}
		running, cancel := s.subscribe() // joins a full history, then stalls
		defer cancel()
		for i := 0; i < events; i++ {
			s.publish("progress", i)
		}
		s.finish("done", map[string]string{"state": "done"})
		finished, cancel2 := s.subscribe()
		defer cancel2()
		for name, ch := range map[string]<-chan sseEvent{"while running": running, "after finish": finished} {
			last, n := lastOf(ch)
			if last.name != "done" {
				t.Errorf("subscriber joining %s: last of %d events is %q, want done", name, n, last.name)
			}
		}
	})
}

// TestNonFiniteProgressEncodes replays a search whose every generation
// is infeasible, so its progress carries a +Inf best objective: the job
// status and its terminal SSE event must still decode as JSON, with
// the best objective rendered as null.
func TestNonFiniteProgressEncodes(t *testing.T) {
	if b, err := json.Marshal(ProgressInfo{Gen: 1, Evals: 2, Best: math.Inf(1)}); err != nil || string(b) != `{"gen":1,"evals":2,"best":null}` {
		t.Fatalf("ProgressInfo with +Inf best encodes as %s (%v)", b, err)
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	req := DesignRequest{Workload: "cifar10", Objective: "sp", Patience: 3, Budget: 80, Seed: 445910689290}
	resp, body := postJSON(t, ts.URL+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, ts.URL, st.ID) // decodes every GET, failing on invalid JSON
	if final.ID != st.ID || final.Progress == nil {
		t.Fatalf("status %+v lacks its id or progress", final)
	}

	resp, err := http.Get(ts.URL + "/v1/designs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var name, data string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			name = v
		} else if v, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			data = v
		}
	}
	if name != "done" {
		t.Fatalf("last SSE event is %q, want done", name)
	}
	var done JobStatus
	if err := json.Unmarshal([]byte(data), &done); err != nil || done.ID != st.ID {
		t.Fatalf("done event does not decode as the job status (%v): %.300s", err, data)
	}
}

// TestSimEventBytesMatchMap pins the struct encoding of SSE "sim" events
// to the map encoding it replaced, byte for byte.
func TestSimEventBytesMatchMap(t *testing.T) {
	evs := []sim.Event{
		{Kind: sim.EvPowerOn, Time: 0, Tile: -1, Layer: -1, Voltage: 2.8},
		{Kind: sim.EvTileDone, Time: 1.25e-7, Tile: 17, Layer: 3, Voltage: 3.0000001},
		{Kind: sim.EvCheckpoint, Time: 123456.789, Tile: 4096, Layer: 12, Voltage: units.Voltage(1) / 3},
	}
	for _, e := range evs {
		got, err := json.Marshal(newSimEvent(e))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(map[string]any{
			"kind":      e.Kind.String(),
			"time_s":    float64(e.Time),
			"tile":      e.Tile,
			"layer":     e.Layer,
			"voltage_v": float64(e.Voltage),
		})
		if string(got) != string(want) {
			t.Errorf("sim event %v encodes as\n%s\nwant\n%s", e.Kind, got, want)
		}
	}
}
