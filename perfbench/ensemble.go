package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"popproto/internal/cluster"
	"popproto/internal/ensemble"
	"popproto/internal/obs"
	"popproto/internal/service"
	"popproto/internal/store"
)

// The ensemble-write workload: one client keeps ewInFlight fresh
// /v1/experiments in flight over one connection. Each is a small PLL
// ensemble with the engine omitted (the count engine) and a unique seed.
// The manager runs two experiments at once and one in-process
// cluster.Worker (defaults, one simulation goroutine) pulls every
// replicate range over loopback, so an op
// crosses the HTTP miss path, admission, the lease round trip, the
// coordinator's merge and the store's group commit. An op lasts from the
// POST until the experiment is done and its record is durable.
//
// Two in flight keep the worker saturated: with one, every op would end
// with the worker asleep in its idle re-poll (250 ms), and that timer
// would set the latency.
const (
	ewN        = 256
	ewR        = 16 // two ranges of eight replicates each
	ewInFlight = 2
	// ewWorkerGoroutines is the worker's simulation goroutines: one, not
	// nproc. On a 2-vCPU virtual machine, two made the same experiments'
	// compute speed differ by up to 19% from one process to the next (one
	// seed: 659 vs 555 replicates/s); with one it stayed within about 7%.
	ewWorkerGoroutines = 1
	// ewTailP: about 650 ops per run, 30 beyond p95.
	ewTailP = 95
)

// ewSet is one set-up of the workload.
type ewSet struct {
	dir       string
	st        *store.Store
	reg       *obs.Registry
	d         *daemon
	client    *http.Client
	transport *http.Transport
	lt        *leaseTransport
	// The worker's lifetime: stop cancels it, workerErr receives its
	// exit, workerTransport holds its one connection.
	stop            context.CancelFunc
	workerErr       chan error
	workerTransport *http.Transport
}

func (s *ewSet) close() {
	s.stop()
	<-s.workerErr
	s.workerTransport.CloseIdleConnections()
	s.transport.CloseIdleConnections()
	s.d.close()
	s.st.Close()
	os.RemoveAll(s.dir)
}

// ewSpec is the op-th experiment of a seed stream: stream 4 for timed
// ops, 5 for warm-ups, so no submission is ever a cache hit.
func ewSpec(seed, stream, op uint64) service.ExperimentSpec {
	return service.ExperimentSpec{Protocol: "pll", N: ewN, Seed: derive(seed, stream, op), Replicates: ewR}
}

// setUpEnsemble opens a fresh store, starts the daemon and the worker,
// waits for the worker to register, and runs one warm-up op.
func setUpEnsemble(cfg config, rep int, tr *tracer) (*ewSet, error) {
	tmp := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.OpenOptions(filepath.Join(dir, "results.store"), store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	d, err := startDaemon(service.Options{Store: st, ExperimentWorkers: 2, Metrics: reg})
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &ewSet{dir: dir, st: st, reg: reg, d: d, workerErr: make(chan error, 1)}
	s.client, s.transport = newClient()
	wc, wt := newClient()
	s.workerTransport = wt
	if tr != nil {
		s.lt = &leaseTransport{base: wt, tr: tr, grants: make(map[string]grant)}
		wc.Transport = s.lt
	}
	w := &cluster.Worker{Coordinator: d.url, ID: "perfbench-worker", Workers: ewWorkerGoroutines, Client: wc}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	go func() { s.workerErr <- w.Run(ctx) }()
	if err := waitFor(10*time.Second, time.Millisecond, func() bool { return d.m.Coordinator().LiveWorkers() > 0 }); err != nil {
		s.close()
		return nil, fmt.Errorf("cluster worker never registered: %w", err)
	}
	if r := s.op(ewSpec(cfg.seed, 5, uint64(rep)), nil, 0); r.err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up experiment: %w", r.err)
	}
	return s, nil
}

// opResult is one experiment's outcome as the client observed it.
type opResult struct {
	id         string
	latency    time.Duration
	persistLag time.Duration
	racy       bool // observed done before its record was durable
	err        error
}

// op submits one fresh experiment, waits until it is done and durable,
// and checks the stored record.
func (s *ewSet) op(spec service.ExperimentSpec, tr *tracer, trace uint64) opResult {
	body, err := json.Marshal(spec)
	if err != nil {
		return opResult{err: err}
	}
	start := time.Now()
	status, resp, err := post(s.client, s.d.url+"/v1/experiments", body)
	submitted := time.Now()
	if err != nil {
		return opResult{err: err}
	}
	var sr struct {
		Experiment struct {
			ID string `json:"id"`
		} `json:"experiment"`
		Cached bool `json:"cached"`
	}
	if status != http.StatusAccepted || json.Unmarshal(resp, &sr) != nil || sr.Cached {
		return opResult{err: fmt.Errorf("submit answered %d: %s", status, resp)}
	}
	r := opResult{id: sr.Experiment.ID}
	exp, ok := s.d.m.GetExperiment(r.id)
	if !ok {
		r.err = fmt.Errorf("experiment %s not found after submit", r.id)
		return r
	}
	<-exp.Done()
	done := time.Now()
	rec, durable := s.st.GetByID(r.id)
	r.racy = !durable
	if !durable {
		err := waitFor(10*time.Second, 100*time.Microsecond, func() bool {
			rec, durable = s.st.GetByID(r.id)
			return durable
		})
		if err != nil {
			r.err = fmt.Errorf("experiment %s done but never durable: %w", r.id, err)
			return r
		}
	}
	end := time.Now()
	r.latency, r.persistLag = end.Sub(start), end.Sub(done)
	root := tr.span("ensemble.op", trace, 0, start, end)
	tr.span("service.submit_miss", trace, root, start, submitted)
	tr.span("service.run", trace, root, submitted, done)
	tr.span("store.persist_lag", trace, root, done, end)

	var agg ensemble.Aggregates
	switch {
	case exp.View().State != service.StateDone:
		r.err = fmt.Errorf("experiment %s ended %s", r.id, exp.View().State)
	case json.Unmarshal(rec.Data, &agg) != nil:
		r.err = fmt.Errorf("experiment %s: durable record does not decode", r.id)
	case agg.Replicates != ewR || agg.Stabilized != ewR:
		r.err = fmt.Errorf("experiment %s: %d of %d replicates stabilized", r.id, agg.Stabilized, agg.Replicates)
	}
	return r
}

func runEnsembleWrite(cfg config) (*outcome, error) {
	tr := newTracer(cfg.trace)
	var setups []time.Duration
	var set *ewSet
	for r := 0; r < setupReps; r++ {
		if set != nil {
			set.close()
		}
		start := time.Now()
		s, err := setUpEnsemble(cfg, r, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		set = s
	}
	defer set.close()
	if set.lt != nil {
		// Count only the timed span's lease traffic.
		set.lt.reset()
		tr.reset()
	}

	out := &outcome{correct: true}
	var (
		seq     atomic.Uint64
		mu      sync.Mutex
		results []opResult
		specs   = map[string]service.ExperimentSpec{}
	)
	before := scrape(set.reg)
	m := startMeter()
	deadline := m.wall.Add(cfg.seconds)
	var wg sync.WaitGroup
	for slot := 0; slot < ewInFlight; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq.Add(1) - 1
				if cfg.maxOps > 0 && i >= uint64(cfg.maxOps) {
					return
				}
				spec := ewSpec(cfg.seed, 4, i)
				r := set.op(spec, tr, i+1)
				mu.Lock()
				results = append(results, r)
				specs[r.id] = spec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sp := m.stop()
	out.steal = sp.steal
	after := scrape(set.reg)

	var ops, lags []time.Duration
	racy := 0
	for _, r := range results {
		out.attempted++
		ops = append(ops, r.latency)
		if r.err != nil {
			out.failed++
			out.notes = append(out.notes, "failed op: "+r.err.Error())
			continue
		}
		lags = append(lags, r.persistLag)
		if r.racy {
			racy++
		}
	}
	if len(results) == 0 {
		return nil, errors.New("ensemble-write: no op completed")
	}
	out.e2e, out.tail = endToEndMetrics(setups, float64(out.attempted*ewR), sp, ops, ewTailP)
	out.e2e["live_heap_mib"] = liveHeapMiB()
	runtime.KeepAlive(set)

	// Byte-identity: one sampled experiment's aggregates must equal an
	// in-process ensemble.Run of the same spec, replayed outside the
	// timed span.
	sample := results[derive(cfg.seed, 6, 0)%uint64(len(results))]
	if err := set.checkIdentity(sample.id, specs[sample.id]); err != nil {
		out.correct = false
		out.notes = append(out.notes, "byte-identity check failed: "+err.Error())
	}
	out.notes = append(out.notes, fmt.Sprintf(
		"ensemble-write: PLL n=%d R=%d engine omitted (count), %d in flight over one connection, 1 worker with %d simulation goroutine(s), %d ops; set-up median %.3f s",
		ewN, ewR, ewInFlight, ewWorkerGoroutines, len(results), median(seconds(setups))))
	if !cfg.trace {
		return out, nil
	}

	delta := func(series string) float64 { return after[series] - before[series] }
	lt := set.lt
	lt.mu.Lock()
	requests, granted, heartbeats := lt.requests, lt.granted, lt.heartbeats
	lt.mu.Unlock()
	mergeUs, err := lt.replayMerge()
	if err != nil {
		return nil, err
	}
	const qw = `popprotod_runcore_queue_wait_seconds_%s{kind="experiments"}`
	out.layer = layerMetrics(out, map[string]float64{
		"service.submit_miss_us":      medianMs(tr.durations("service.submit_miss")) * 1000,
		"runcore.queue_wait_ms":       ratio(delta(fmt.Sprintf(qw, "sum")), delta(fmt.Sprintf(qw, "count"))) * 1000,
		"cluster.lease_rtt_ms":        medianMs(tr.durations("cluster.lease")),
		"cluster.complete_rtt_ms":     medianMs(tr.durations("cluster.complete")),
		"cluster.heartbeats":          float64(heartbeats),
		"cluster.range_exec_ms":       medianMs(tr.durations("cluster.range_exec")),
		"cluster.lease_useful_ratio":  ratio(float64(granted), float64(requests)),
		"ensemble.merge_us_per_range": mergeUs,
		"store.persist_lag_ms":        medianMs(lags),
		"store.batch_records_mean": ratio(delta("popprotod_store_batch_records_sum"),
			delta("popprotod_store_batch_records_count")),
		"store.fsyncs_per_op":         delta("popprotod_store_fsync_seconds_count") / float64(out.attempted),
		"service.done_before_durable": float64(racy),
	})
	return out, tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("trace-ensemble-write-seed%d.json", cfg.seed)))
}

// checkIdentity recomputes one experiment in process with ensemble.Run and
// requires its aggregates to equal both the served and the stored ones.
func (s *ewSet) checkIdentity(id string, spec service.ExperimentSpec) error {
	_, espec, err := s.d.m.CanonicalizeExperiment(spec)
	if err != nil {
		return err
	}
	want, err := ensemble.Run(context.Background(), espec, ensemble.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	exp, ok := s.d.m.GetExperiment(id)
	if !ok || exp.Aggregates() == nil {
		return fmt.Errorf("experiment %s has no aggregates", id)
	}
	if !reflect.DeepEqual(*exp.Aggregates(), want.Aggregates) {
		return fmt.Errorf("experiment %s: served aggregates differ from ensemble.Run", id)
	}
	rec, ok := s.st.GetByID(id)
	if !ok {
		return fmt.Errorf("experiment %s: no durable record", id)
	}
	wantJSON, err := json.Marshal(want.Aggregates)
	if err != nil {
		return err
	}
	if !bytes.Equal(rec.Data, wantJSON) {
		return fmt.Errorf("experiment %s: stored aggregates differ from ensemble.Run", id)
	}
	return nil
}

// leaseTransport wraps the worker's HTTP transport in the traced run: it
// times the lease protocol's round trips, counts idle polls and
// heartbeats, and keeps each completed range's partial payload so the
// merge can be replayed out of line.
type leaseTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu                            sync.Mutex
	requests, granted, heartbeats int
	grants                        map[string]grant
	partials                      []capturedPartial
}

// grant is a lease as the worker received it.
type grant struct {
	run   string
	index int
	at    time.Time
}

type capturedPartial struct {
	run     string
	index   int
	payload []byte
}

func (t *leaseTransport) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests, t.granted, t.heartbeats = 0, 0, 0
	t.partials = nil
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	start := time.Now()
	switch {
	case path == "/v1/cluster/leases":
		resp, err := t.base.RoundTrip(req)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		t.tr.span("cluster.lease", 0, 0, start, end)
		t.mu.Lock()
		t.requests++
		t.mu.Unlock()
		if resp.StatusCode != http.StatusOK {
			return resp, nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr struct {
			Lease *cluster.Lease `json:"lease"`
		}
		if json.Unmarshal(body, &lr) == nil && lr.Lease != nil {
			t.mu.Lock()
			t.granted++
			t.grants[lr.Lease.ID] = grant{lr.Lease.Run, lr.Lease.Range.Index, end}
			t.mu.Unlock()
		}
		return resp, nil
	case strings.HasSuffix(path, "/heartbeat"):
		resp, err := t.base.RoundTrip(req)
		t.tr.span("cluster.heartbeat", 0, 0, start, time.Now())
		t.mu.Lock()
		t.heartbeats++
		t.mu.Unlock()
		return resp, err
	case strings.HasSuffix(path, "/complete"):
		leaseID := strings.TrimSuffix(strings.TrimPrefix(path, "/v1/cluster/leases/"), "/complete")
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var cr struct {
			Partial []byte `json:"partial"`
		}
		t.mu.Lock()
		g, ok := t.grants[leaseID]
		delete(t.grants, leaseID)
		if ok && json.Unmarshal(body, &cr) == nil {
			t.partials = append(t.partials, capturedPartial{g.run, g.index, cr.Partial})
		}
		t.mu.Unlock()
		if ok {
			t.tr.span("cluster.range_exec", 0, 0, g.at, start)
		}
		out := req.Clone(req.Context())
		out.Body = io.NopCloser(bytes.NewReader(body))
		resp, err := t.base.RoundTrip(out)
		t.tr.span("cluster.complete", 0, 0, start, time.Now())
		return resp, err
	default:
		return t.base.RoundTrip(req)
	}
}

// replayMerge decodes and folds each captured run's partials in range
// order, as the coordinator does, and returns the mean time per range of
// UnmarshalBinary plus Merge in µs.
func (t *leaseTransport) replayMerge() (float64, error) {
	t.mu.Lock()
	byRun := map[string][]capturedPartial{}
	for _, p := range t.partials {
		byRun[p.run] = append(byRun[p.run], p)
	}
	t.mu.Unlock()
	var total time.Duration
	ranges := 0
	for _, ps := range byRun {
		sort.Slice(ps, func(i, j int) bool { return ps[i].index < ps[j].index })
		var folded *ensemble.Partial
		for _, c := range ps {
			start := time.Now()
			p := &ensemble.Partial{}
			if err := p.UnmarshalBinary(c.payload); err != nil {
				return 0, fmt.Errorf("replaying run %s range %d: %w", c.run, c.index, err)
			}
			if folded == nil {
				folded = p
			} else if err := folded.Merge(p); err != nil {
				return 0, fmt.Errorf("replaying run %s range %d: %w", c.run, c.index, err)
			}
			total += time.Since(start)
			ranges++
		}
	}
	if ranges == 0 {
		return 0, nil
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(ranges), nil
}
