package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// setupReps is how many times the service workloads repeat their whole
// set-up span; setup_s is the median.
const setupReps = 5

// derive maps (workload seed, stream, index) to an independent nonzero
// 64-bit seed with SplitMix64, so every input of a run derives from the
// one workload seed.
func derive(seed uint64, stream, i uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// median returns the median of xs (0 when empty), like Python's
// statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"), so
// spreads computed here match the ones a harness computes there.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailInfo records which percentile op_tail_ms reports.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tailLadder lists the percentiles op_tail_ms may report, highest first.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1], len(sorted) - rank
}

// tail returns the p-th percentile of sorted, or the highest lower ladder
// percentile with at least ten samples beyond it when p has fewer (the
// median when none has). Each workload fixes p at the highest ladder
// step its op count supports at the benchmark's run length, so two
// versions of the program report the same percentile even when one runs
// more ops.
func tail(sorted []float64, p float64) (float64, tailInfo) {
	for _, q := range tailLadder {
		if q > p {
			continue
		}
		if v, beyond := percentile(sorted, q); beyond >= 10 {
			return v, tailInfo{q, beyond, len(sorted)}
		}
	}
	v, beyond := percentile(sorted, 50)
	return v, tailInfo{50, beyond, len(sorted)}
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianMs is the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 { return median(ms(ds)) }

// opLogCap bounds the ops one goroutine records in a run, far above any
// measured rate (about 8k ops/s per front-hit client) times a run.
const opLogCap = 1 << 23

// opLog holds one goroutine's op latencies outside the Go heap, in an
// anonymous mapping, so the benchmark's own bookkeeping does not grow the
// live heap as a run goes on and shift the program's GC pacing with it.
type opLog struct {
	mem []byte
	buf []time.Duration
	n   int
}

func newOpLog() (*opLog, error) {
	mem, err := syscall.Mmap(-1, 0, opLogCap*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return &opLog{mem: mem, buf: unsafe.Slice((*time.Duration)(unsafe.Pointer(&mem[0])), opLogCap)}, nil
}

// add records one op and reports whether the log has room for another.
func (l *opLog) add(d time.Duration) bool {
	l.buf[l.n] = d
	l.n++
	return l.n < len(l.buf)
}

// ops returns the recorded latencies; they are valid until free.
func (l *opLog) ops() []time.Duration { return l.buf[:l.n] }

func (l *opLog) free() { syscall.Munmap(l.mem) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// stealTicks is the machine's total steal time in clock ticks (1/100 s):
// time a virtual machine's CPUs were runnable but not running. It reads 0
// where /proc/stat has no such column.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// meter measures one timed span: wall clock, process CPU, heap
// allocations and the machine's steal time between start and stop.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	steal   float64
}

func startMeter() meter {
	m := meter{mallocs: mallocs(), cpu: cpuTime(), steal: stealTicks()}
	m.wall = time.Now()
	return m
}

// span is what a meter read over its span. steal is the share of the
// machine's CPU time stolen by its host, a noise diagnostic.
type span struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	steal   float64
}

func (m meter) stop() span {
	wall := time.Since(m.wall)
	return span{
		wall: wall, cpu: cpuTime() - m.cpu, mallocs: mallocs() - m.mallocs,
		steal: (stealTicks() - m.steal) / 100 / (wall.Seconds() * float64(runtime.NumCPU())),
	}
}

// liveHeapMiB forces collections and returns the live heap in MiB.
// Callers drop the benchmark's own op records first and keep the
// workload's state reachable across the call (with runtime.KeepAlive
// after it), so the figure is the workload's working set.
func liveHeapMiB() float64 {
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second frees them, so pooled buffers do not
	// make the figure depend on when the last request ran.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEndMetrics computes the end-to-end metric set from one run.
// The caller adds live_heap_mib once it has dropped its op records.
func endToEndMetrics(setups []time.Duration, work float64, sp span, ops []time.Duration, tailP float64) (map[string]float64, tailInfo) {
	lat := ms(ops)
	sort.Float64s(lat)
	tailV, ti := tail(lat, tailP)
	p50, _ := percentile(lat, 50)
	n := float64(max(len(ops), 1))
	return map[string]float64{
		"setup_s":       median(seconds(setups)),
		"work_per_s":    work / sp.wall.Seconds(),
		"op_p50_ms":     p50,
		"op_tail_ms":    tailV,
		"cpu_ms_per_op": float64(sp.cpu.Nanoseconds()) / 1e6 / n,
		"allocs_per_op": float64(sp.mallocs) / n,
	}, ti
}

// tracer keeps spans in memory during a traced run and writes them out
// at the end. A nil tracer records nothing, which is how untraced runs
// pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []traceSpan
}

// traceSpan is one recorded layer-boundary span. Spans of one operation
// share Trace; Parent names the span that caused this one.
type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// span records one span and returns its id (0 on a nil tracer).
func (t *tracer) span(name string, trace uint64, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, traceSpan{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
