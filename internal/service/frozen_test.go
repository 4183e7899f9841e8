package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"popproto/internal/service"
)

// A terminal run's view is encoded once and served as the same bytes by
// every endpoint (runcore.Render). These tests pin those bytes to
// writeJSON's encoding of the view, on done, canceled and failed runs of
// all three kinds, and check that nothing is frozen while a run is live.

// encoded is the oracle: json.Encoder with HTML escaping off, one
// trailing newline — how writeJSON encodes every response body.
func encoded(t testing.TB, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// request runs one request through h in process.
func request(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w
}

// doneEvent returns the data of the "done" event that closes a stream
// body.
func doneEvent(t testing.TB, stream string) string {
	t.Helper()
	_, rest, ok := strings.Cut(stream, "event: done\ndata: ")
	data, _, closed := strings.Cut(rest, "\n\n")
	if !ok || !closed {
		t.Fatalf("stream has no done event: %q", stream)
	}
	return data
}

type submitExperimentResp struct {
	Experiment service.ExperimentView `json:"experiment"`
	Cached     bool                   `json:"cached"`
}

type submitSweepResp struct {
	Sweep  service.SweepView `json:"sweep"`
	Cached bool              `json:"cached"`
}

// terminalRun is one run under test, of any kind.
type terminalRun struct {
	path   string // GET/DELETE path
	stream string // SSE path
	// spec is the JSON resubmission body, "" for states the cache does
	// not serve (canceled runs are re-run).
	spec   string
	run    interface{ Done() <-chan struct{} }
	state  func() service.State
	view   func() any
	submit func(view any) any // the kind's POST body for a cached view
}

func jobRun(t *testing.T, m *service.Manager, spec service.JobSpec) terminalRun {
	j, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return terminalRun{
		path: "/v1/jobs/" + j.ID, stream: "/v1/jobs/" + j.ID + "/trace", spec: mustJSON(t, spec),
		run: j, state: j.State, view: func() any { return j.View() },
		submit: func(v any) any { return submitResp{Job: v.(service.JobView), Cached: true} },
	}
}

func experimentRun(t *testing.T, m *service.Manager, spec service.ExperimentSpec) terminalRun {
	e, _, err := m.SubmitExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	return terminalRun{
		path: "/v1/experiments/" + e.ID, stream: "/v1/experiments/" + e.ID + "/stream", spec: mustJSON(t, spec),
		run: e, state: e.State, view: func() any { return e.View() },
		submit: func(v any) any { return submitExperimentResp{Experiment: v.(service.ExperimentView), Cached: true} },
	}
}

func sweepRun(t *testing.T, m *service.Manager, spec service.SweepSpec) terminalRun {
	s, _, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	return terminalRun{
		path: "/v1/sweeps/" + s.ID, stream: "/v1/sweeps/" + s.ID + "/stream", spec: mustJSON(t, spec),
		run: s, state: s.State, view: func() any { return s.View() },
		submit: func(v any) any { return submitSweepResp{Sweep: v.(service.SweepView), Cached: true} },
	}
}

func mustJSON(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkFrozen waits for r to reach want, then asserts that GET, the
// stream's done event, DELETE and (for cached states) the resubmitted
// POST all serve the oracle encoding of its view, twice over: the
// first render freezes the bytes, the second serves them.
func checkFrozen(t *testing.T, h http.Handler, r terminalRun, want service.State) {
	t.Helper()
	select {
	case <-r.run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("%s still %s after 60s", r.path, r.state())
	}
	if got := r.state(); got != want {
		t.Fatalf("%s ended %s, want %s", r.path, got, want)
	}
	view := encoded(t, r.view())
	for i := 0; i < 2; i++ {
		if w := request(h, "GET", r.path, ""); w.Code != http.StatusOK || w.Body.String() != view {
			t.Errorf("GET %s = %d\n%s\nwant\n%s", r.path, w.Code, w.Body, view)
		}
		if got := doneEvent(t, request(h, "GET", r.stream, "").Body.String()); got+"\n" != view {
			t.Errorf("%s done event =\n%s\nwant\n%s", r.stream, got, view)
		}
	}
	if w := request(h, "DELETE", r.path, ""); w.Code != http.StatusAccepted || w.Body.String() != view {
		t.Errorf("DELETE %s = %d\n%s\nwant\n%s", r.path, w.Code, w.Body, view)
	}
	if r.spec == "" {
		return
	}
	target := r.path[:strings.LastIndexByte(r.path, '/')]
	post := encoded(t, r.submit(r.view()))
	for i := 0; i < 2; i++ {
		if w := request(h, "POST", target, r.spec); w.Code != http.StatusOK || w.Body.String() != post {
			t.Errorf("POST %s = %d\n%s\nwant\n%s", target, w.Code, w.Body, post)
		}
	}
}

func TestFrozenViewsDone(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	t.Cleanup(m.Close)
	h := service.NewHandler(m)
	runs := []terminalRun{
		jobRun(t, m, service.JobSpec{Protocol: "pll", N: 1000, Seed: 11, MaxParallelTime: 40}),
		experimentRun(t, m, service.ExperimentSpec{Protocol: "pll", N: 256, Seed: 3, Replicates: 4}),
		sweepRun(t, m, service.SweepSpec{Protocols: []string{"pll"}, Ns: []int{200, 400}, Replicates: 2}),
	}
	for _, r := range runs {
		checkFrozen(t, h, r, service.StateDone)
	}
}

func TestFrozenViewsCanceled(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	h := service.NewHandler(m)
	// Linear-time elections, canceled long before they could finish.
	job := jobRun(t, m, service.JobSpec{Protocol: "angluin", N: 300_000, Engine: "agent"})
	exp := experimentRun(t, m, service.ExperimentSpec{Protocol: "angluin", N: 100_000, Engine: "count", Replicates: 200})
	sw := sweepRun(t, m, service.SweepSpec{Protocols: []string{"angluin"}, Ns: []int{100_000, 120_000}, Engine: "count", Replicates: 200})
	for _, r := range []terminalRun{job, exp, sw} {
		request(h, "DELETE", r.path, "")
		r.spec = ""
		checkFrozen(t, h, r, service.StateCanceled)
	}
}

// TestFrozenViewsFailed fails an experiment and a sweep for real: a
// cluster worker that takes every lease and never completes one makes
// each range exhaust its reissues.
func TestFrozenViewsFailed(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1, LeaseTTL: 100 * time.Millisecond})
	t.Cleanup(m.Close)
	h := service.NewHandler(m)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				_, _ = m.Coordinator().Lease("lease-hoarder")
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	for m.Coordinator().LiveWorkers() < 1 {
		time.Sleep(time.Millisecond)
	}
	exp := experimentRun(t, m, service.ExperimentSpec{Protocol: "pll", N: 256, Seed: 5, Replicates: 4})
	sw := sweepRun(t, m, service.SweepSpec{Protocols: []string{"pll"}, Ns: []int{300}, Seed: 6, Replicates: 4})
	checkFrozen(t, h, exp, service.StateFailed)
	checkFrozen(t, h, sw, service.StateFailed)
}

// TestLiveViewNotFrozen: a running job's GET keeps showing progress.
func TestLiveViewNotFrozen(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	h := service.NewHandler(m)
	j, _, err := m.Submit(service.JobSpec{Protocol: "angluin", N: 300_000, Engine: "agent"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(j.ID)
	get := func() service.JobView {
		var v service.JobView
		do(t, h, "GET", "/v1/jobs/"+j.ID, "", http.StatusOK, &v)
		return v
	}
	deadline := time.Now().Add(30 * time.Second)
	first := get()
	for ; first.State != service.StateRunning; first = get() {
		if first.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never ran: %s", first.State)
		}
		time.Sleep(time.Millisecond)
	}
	for {
		v := get()
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("no progress between GETs of a running job: %d snapshots, then %s with %d",
				first.Snapshots, v.State, v.Snapshots)
		}
		if v.Snapshots > first.Snapshots {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrozenConcurrentFinish races POSTs, GETs and a stream against a
// job's terminal transition: every body shows the live job or is
// exactly the frozen bytes. Run it under -race with -count.
func TestFrozenConcurrentFinish(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	h := service.NewHandler(m)
	spec := `{"protocol":"pll","n":20000,"engine":"count","seed":5}`
	var sub submitResp
	do(t, h, "POST", "/v1/jobs", spec, http.StatusAccepted, &sub)
	path := "/v1/jobs/" + sub.Job.ID

	type reply struct {
		post bool
		body string
	}
	var (
		mu      sync.Mutex
		replies []reply
		stream  string
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(60 * time.Second)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path+"/trace", nil).WithContext(ctx))
		mu.Lock()
		stream = w.Body.String()
		mu.Unlock()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(post bool) {
			defer wg.Done()
			for after := 0; after < 20; {
				if time.Now().After(deadline) {
					t.Errorf("job %s not terminal after 60s", sub.Job.ID)
					return
				}
				var w *httptest.ResponseRecorder
				if post {
					w = request(h, "POST", "/v1/jobs", spec)
				} else {
					w = request(h, "GET", path, "")
				}
				mu.Lock()
				replies = append(replies, reply{post, w.Body.String()})
				mu.Unlock()
				var v struct {
					State service.State `json:"state"`
					Job   struct {
						State service.State `json:"state"`
					} `json:"job"`
				}
				if json.Unmarshal(w.Body.Bytes(), &v) == nil && (v.State.Terminal() || v.Job.State.Terminal()) {
					after++
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	frozen := strings.TrimSuffix(request(h, "GET", path, "").Body.String(), "\n")
	j, _ := m.Get(sub.Job.ID)
	if want := strings.TrimSuffix(encoded(t, j.View()), "\n"); frozen != want {
		t.Fatalf("frozen bytes\n%s\nwant\n%s", frozen, want)
	}
	if got := doneEvent(t, stream); got != frozen {
		t.Errorf("stream done event\n%s\nis not the frozen view\n%s", got, frozen)
	}
	live := 0
	for _, r := range replies {
		var v service.JobView
		if r.post {
			var s submitResp
			if err := json.Unmarshal([]byte(r.body), &s); err != nil {
				t.Fatalf("POST body %q: %v", r.body, err)
			}
			v = s.Job
		} else if err := json.Unmarshal([]byte(r.body), &v); err != nil {
			t.Fatalf("GET body %q: %v", r.body, err)
		}
		if !v.State.Terminal() {
			live++
			continue
		}
		want := frozen + "\n"
		if r.post {
			want = `{"job":` + frozen + `,"cached":true}` + "\n"
			if alt := `{"job":` + frozen + `,"cached":false}` + "\n"; r.body == alt {
				continue // joined while live, rendered once terminal
			}
		}
		if r.body != want {
			t.Fatalf("terminal body\n%s\nis not the frozen view\n%s", r.body, want)
		}
	}
	t.Logf("%d replies, %d of them live", len(replies), live)
}

// cachedJobSpec is a small PLL job that finishes in milliseconds with a
// full, untruncated census: the shape of a typical cache hit.
const cachedJobSpec = `{"protocol":"pll","n":1000,"engine":"auto","seed":11,"maxParallelTime":40}`

// cachedJob returns a handler whose manager has finished the job of
// spec, once a resubmission of spec is answered from the cache.
func cachedJob(tb testing.TB, spec string) http.Handler {
	tb.Helper()
	m := service.NewManager(service.Options{Workers: 1})
	tb.Cleanup(m.Close)
	h := service.NewHandler(m)
	deadline := time.Now().Add(30 * time.Second)
	for request(h, "POST", "/v1/jobs", spec).Code != http.StatusOK {
		if time.Now().After(deadline) {
			tb.Fatalf("job %s never served from the cache", spec)
		}
		time.Sleep(time.Millisecond)
	}
	return h
}

// TestJobCacheHitAllocs pins the heap allocations of a cached POST
// /v1/jobs in process (38 on Go 1.24, about 11 of them the fixture's
// own request and recorder): spec decode, canonicalization, the run
// index, the request telemetry and the response writes. A finished
// job's view is served as frozen bytes, so a jump here means the hit
// path is encoding or formatting again.
func TestJobCacheHitAllocs(t *testing.T) {
	h := cachedJob(t, cachedJobSpec)
	allocs := testing.AllocsPerRun(200, func() {
		request(h, "POST", "/v1/jobs", cachedJobSpec)
	})
	if allocs > 41 {
		t.Fatalf("cached POST /v1/jobs allocates %.1f times per request, want <= 41", allocs)
	}
}

// BenchmarkHandler_JobCacheHit is the front door's hot path in process:
// a resubmitted POST /v1/jobs answered from the finished-work cache —
// spec decode, canonicalization, the run index and the frozen response
// body.
func BenchmarkHandler_JobCacheHit(b *testing.B) {
	h := cachedJob(b, cachedJobSpec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := request(h, "POST", "/v1/jobs", cachedJobSpec); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
