package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"popproto/internal/service"
)

// The front-hit workload: nproc keep-alive clients re-POST /v1/jobs for
// frontK distinct finished PLL jobs, each one connection, each waiting for
// its reply. Every op is a cache hit, so the time goes to HTTP decode,
// canonicalization, the run index and view encoding; the engine and the
// store do nothing.
const (
	// frontK stays below the job LRU's default capacity (256), so no hit
	// is ever evicted into a miss.
	frontK = 64
	// frontN keeps priming all frontK jobs to a fraction of a second;
	// each result still carries its full census (about 27 live states,
	// below the 32 a result reports before truncating).
	frontN = 1000
	// frontProbes is the number of in-process calls per layer the traced
	// run times after the loopback loop.
	frontProbes = 2000
	// frontMaxPT caps each job at 40 parallel time. About a quarter of
	// PLL runs at this n fall into BackUp and last tens of times longer
	// than the rest; uncapped, which jobs a seed draws swung set-up time
	// by 40% between seeds. A capped job still finishes with a full,
	// cacheable result.
	frontMaxPT = 40
	// frontTailP: a few hundred thousand ops per run. At p99.9 five runs
	// read from 1.09 to 1.59 ms.
	frontTailP = 99
)

// hitResponse is the part of a POST /v1/jobs reply every op checks.
type hitResponse struct {
	Job struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	} `json:"job"`
	Cached bool `json:"cached"`
}

// frontSet is one set-up of the workload: a primed daemon and its clients.
type frontSet struct {
	d          *daemon
	clients    []*http.Client
	transports []*http.Transport
	specs      []service.JobSpec
	bodies     [][]byte
	results    [][]byte // primed result bytes per job
	prime      time.Duration
	// doneNotCached counts primed jobs whose resubmission right after
	// they were observed done was not yet a cache hit.
	doneNotCached int
}

func (s *frontSet) close() {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	s.d.close()
}

func frontSpecs(seed uint64) ([]service.JobSpec, [][]byte, error) {
	specs := make([]service.JobSpec, frontK)
	bodies := make([][]byte, frontK)
	for i := range specs {
		specs[i] = service.JobSpec{Protocol: "pll", N: frontN, Engine: "auto", Seed: derive(seed, 2, uint64(i)), MaxParallelTime: frontMaxPT}
		b, err := json.Marshal(specs[i])
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return specs, bodies, nil
}

// setUpFront starts a daemon, primes the frontK jobs until resubmission
// reports them cached, and warms every client's connection with one op.
func setUpFront(seed uint64, nclients int) (*frontSet, error) {
	d, err := startDaemon(service.Options{})
	if err != nil {
		return nil, err
	}
	s := &frontSet{d: d, results: make([][]byte, frontK)}
	for i := 0; i < nclients; i++ {
		c, t := newClient()
		s.clients = append(s.clients, c)
		s.transports = append(s.transports, t)
	}
	fail := func(err error) (*frontSet, error) {
		s.close()
		return nil, err
	}
	if s.specs, s.bodies, err = frontSpecs(seed); err != nil {
		return fail(err)
	}
	primeStart := time.Now()
	url := d.url + "/v1/jobs"
	ids := make([]string, frontK)
	for i, body := range s.bodies {
		status, resp, err := post(s.clients[0], url, body)
		if err != nil {
			return fail(err)
		}
		var hr hitResponse
		if status != http.StatusAccepted || json.Unmarshal(resp, &hr) != nil {
			return fail(fmt.Errorf("priming job %d: status %d: %s", i, status, resp))
		}
		ids[i] = hr.Job.ID
	}
	for i, id := range ids {
		j, ok := d.m.Get(id)
		if !ok {
			return fail(fmt.Errorf("priming job %d: %s not found", i, id))
		}
		<-j.Done()
		first := true
		err := waitFor(10*time.Second, 100*time.Microsecond, func() bool {
			status, resp, err := post(s.clients[0], url, s.bodies[i])
			var hr hitResponse
			if err != nil || status != http.StatusOK || json.Unmarshal(resp, &hr) != nil || !hr.Cached {
				if first {
					s.doneNotCached++
				}
				first = false
				return false
			}
			s.results[i] = hr.Job.Result
			return true
		})
		if err != nil {
			return fail(fmt.Errorf("priming job %d: resubmission never cached: %w", i, err))
		}
		if hr := j.View(); hr.State != service.StateDone || hr.Result == nil || len(hr.Result.Census) == 0 {
			return fail(fmt.Errorf("priming job %d: finished %s without a census-bearing result", i, hr.State))
		}
	}
	s.prime = time.Since(primeStart)
	for c := range s.clients {
		if !s.hit(c, c%frontK) {
			return fail(fmt.Errorf("warm-up request on client %d failed its check", c))
		}
	}
	return s, nil
}

// hit performs one op: re-POST job i on client c and check the reply.
func (s *frontSet) hit(c, i int) bool {
	status, resp, err := post(s.clients[c], s.d.url+"/v1/jobs", s.bodies[i])
	if err != nil || status != http.StatusOK {
		return false
	}
	var hr hitResponse
	if json.Unmarshal(resp, &hr) != nil {
		return false
	}
	return hr.Cached && bytes.Equal(hr.Job.Result, s.results[i])
}

func runFrontHit(cfg config) (*outcome, error) {
	nclients := runtime.NumCPU()
	tr := newTracer(cfg.trace)

	var setups, primes []time.Duration
	var set *frontSet
	for r := 0; r < setupReps; r++ {
		if set != nil {
			set.close()
		}
		start := time.Now()
		s, err := setUpFront(cfg.seed, nclients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		primes = append(primes, s.prime)
		set = s
	}
	defer set.close()

	out := &outcome{correct: true}
	stats0 := set.d.m.Stats()
	logs := make([]*opLog, nclients)
	for c := range logs {
		l, err := newOpLog()
		if err != nil {
			return nil, err
		}
		defer l.free()
		logs[c] = l
	}
	fails := make([]int, nclients)
	m := startMeter()
	deadline := m.wall.Add(cfg.seconds)
	var wg sync.WaitGroup
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := rand.New(rand.NewPCG(derive(cfg.seed, 3, uint64(c)), 0))
			l := logs[c]
			for (cfg.maxOps == 0 || l.n*nclients < cfg.maxOps) && time.Now().Before(deadline) {
				i := order.IntN(frontK)
				start := time.Now()
				ok := set.hit(c, i)
				end := time.Now()
				tr.span("front.request", uint64(c)<<32|uint64(l.n), 0, start, end)
				if !ok {
					fails[c]++
				}
				if !l.add(end.Sub(start)) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	sp := m.stop()
	out.steal = sp.steal
	stats1 := set.d.m.Stats()

	var ops []time.Duration
	for c, l := range logs {
		ops = append(ops, l.ops()...)
		out.failed += fails[c]
	}
	out.attempted = len(ops)
	out.e2e, out.tail = endToEndMetrics(setups, float64(len(ops)), sp, ops, frontTailP)
	out.e2e["live_heap_mib"] = liveHeapMiB()
	runtime.KeepAlive(set)
	out.notes = append(out.notes, fmt.Sprintf(
		"front-hit: K=%d PLL jobs n=%d engine=auto, %d closed-loop clients, %d ops; set-up median %.3f s (priming %.3f s)",
		frontK, frontN, nclients, out.attempted, median(seconds(setups)), median(seconds(primes))))
	if !cfg.trace {
		return out, nil
	}

	handlerUs, handlerAllocs := set.probeHandler(tr)
	submitUs, viewUs, respBytes, err := set.probeManager(tr)
	if err != nil {
		return nil, err
	}
	subs := float64(stats1.Hits+stats1.Joined+stats1.Misses+stats1.StoreHits) -
		float64(stats0.Hits+stats0.Joined+stats0.Misses+stats0.StoreHits)
	loopUs := medianMs(tr.durations("front.request")) * 1000
	out.layer = layerMetrics(out, map[string]float64{
		"service.handler_us":          handlerUs,
		"service.handler_allocs":      handlerAllocs,
		"service.submit_hit_us":       submitUs,
		"service.view_encode_us":      viewUs,
		"service.response_bytes":      respBytes,
		"service.loopback_us":         loopUs - handlerUs,
		"runcore.hit_ratio":           ratio(float64(stats1.Hits-stats0.Hits), subs),
		"service.prime_s":             median(seconds(primes)),
		"service.done_before_durable": float64(set.doneNotCached),
	})
	return out, tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("trace-front-hit-seed%d.json", cfg.seed)))
}

// probeHandler times the public handler in process, without the network:
// the median ServeHTTP time in µs and the heap allocations per request.
func (s *frontSet) probeHandler(tr *tracer) (us, allocs float64) {
	reqs := make([]*http.Request, frontProbes)
	recs := make([]*httptest.ResponseRecorder, frontProbes)
	for p := range reqs {
		reqs[p] = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(s.bodies[p%frontK]))
		reqs[p].Header.Set("Content-Type", "application/json")
		recs[p] = httptest.NewRecorder()
	}
	before := mallocs()
	for p := range reqs {
		start := time.Now()
		s.d.handler.ServeHTTP(recs[p], reqs[p])
		tr.span("service.handler", uint64(p), 0, start, time.Now())
	}
	allocs = float64(mallocs()-before) / frontProbes
	return medianMs(tr.durations("service.handler")) * 1000, allocs
}

// probeManager times Manager.Submit on cached specs and the encoding of
// the job view a hit returns.
func (s *frontSet) probeManager(tr *tracer) (submitUs, viewUs, respBytes float64, err error) {
	var bytesTotal int
	for p := 0; p < frontProbes; p++ {
		start := time.Now()
		j, cached, err := s.d.m.Submit(s.specs[p%frontK])
		tr.span("service.submit_hit", uint64(p), 0, start, time.Now())
		if err != nil || !cached {
			return 0, 0, 0, fmt.Errorf("in-process resubmission of job %d was not a cache hit (err %v)", p%frontK, err)
		}
		start = time.Now()
		b, err := json.Marshal(j.View())
		tr.span("service.view_encode", uint64(p), 0, start, time.Now())
		if err != nil {
			return 0, 0, 0, err
		}
		bytesTotal += len(b)
	}
	return medianMs(tr.durations("service.submit_hit")) * 1000,
		medianMs(tr.durations("service.view_encode")) * 1000,
		float64(bytesTotal) / frontProbes, nil
}
