package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"popproto/internal/pp"
	"popproto/internal/registry"
)

// The elect workload: a fixed-work PLL window. Each op advances one
// election, built by registry.New with engine "auto" (hybrid at this n),
// by electChunk interactions through Election.RunSteps. An election
// covers the first electWindowPT units of parallel time, the
// reaction-dense phase where round mode's matching and hypergeometric
// draws dominate; then a fresh election with the next derived seed takes
// over, until the run's seconds are spent. Full elections are not used:
// their length depends on the seed by more than an order of magnitude.
const (
	electN = 10_000_000
	// electWindowPT is 10, not 40: past about 20 parallel time how far
	// the election has got, and with it the cost per interaction, depends
	// on the seed, while the first 10 look alike for every seed at this n.
	electWindowPT = 10
	electChunk    = electN / 50 // 0.02 parallel time per op
	// electSetupReps: registry.New takes about 10 µs here, so setup_s is
	// the median of many builds.
	electSetupReps = 21
	// electTailP: p95 of about 3500 ops per run. The slowest chunks are
	// host hiccups, not the engine: in ten runs with 1-7% host steal, p99
	// read from 10.6 to 18.7 ms, depending on whether more than 1% of the
	// chunks were hit.
	electTailP = 95
)

func electSpec(seed uint64, window int) registry.Spec {
	return registry.Spec{Protocol: "pll", N: electN, Engine: pp.EngineAuto, Seed: derive(seed, 1, uint64(window))}
}

func runElect(cfg config) (*outcome, error) {
	entry, ok := registry.Lookup("pll")
	if !ok {
		return nil, fmt.Errorf("registry has no pll entry")
	}
	maxStates := entry.StateCount(electN, 0)
	tr := newTracer(cfg.trace)

	// Set-up: the election build, repeated; the last build is the one
	// the timed loop advances.
	var setups []time.Duration
	var el registry.Election
	for r := 0; r < electSetupReps; r++ {
		start := time.Now()
		e, err := registry.New(electSpec(cfg.seed, 0))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		el = e
	}
	builds := append([]time.Duration(nil), setups...)

	const windowSteps = uint64(electWindowPT * electN)
	out := &outcome{correct: true}
	var (
		ops                            []time.Duration
		roundS, interactS, skipS, hand uint64
		liveMax                        int
		window                         int
	)
	prev, _ := el.HybridStats()
	m := startMeter()
	deadline := m.wall.Add(cfg.seconds)
	for (cfg.maxOps == 0 || len(ops) < cfg.maxOps) && time.Now().Before(deadline) {
		if el.Steps() >= windowSteps {
			window++
			start := time.Now()
			e, err := registry.New(electSpec(cfg.seed, window))
			if err != nil {
				return nil, err
			}
			builds = append(builds, time.Since(start))
			el = e
			prev, _ = el.HybridStats()
		}
		before := el.Steps()
		start := time.Now()
		el.RunSteps(electChunk)
		end := time.Now()
		ops = append(ops, end.Sub(start))
		tr.span("pp.chunk", uint64(len(ops)), 0, start, end)

		out.attempted++
		live := el.LiveStates()
		if el.Steps()-before != electChunk || el.Leaders() < 1 || live > maxStates {
			out.failed++
		}
		liveMax = max(liveMax, live)
		if hs, ok := el.HybridStats(); ok {
			roundS += hs.RoundSteps - prev.RoundSteps
			interactS += hs.InteractSteps - prev.InteractSteps
			skipS += hs.SkipSteps - prev.SkipSteps
			hand += hs.Handovers - prev.Handovers
			prev = hs
		}
	}
	sp := m.stop()
	out.steal = sp.steal
	work := float64(len(ops)) * electChunk
	out.e2e, out.tail = endToEndMetrics(setups, work, sp, ops, electTailP)
	out.notes = append(out.notes,
		fmt.Sprintf("elect: n=%d W=%d pt chunk=%d interactions, %d ops over %d window(s); setup is one registry.New (%.3f ms median), no padding",
			electN, electWindowPT, electChunk, len(ops), window+1, medianMs(setups)))
	out.e2e["live_heap_mib"] = liveHeapMiB()
	runtime.KeepAlive(el)
	if !cfg.trace {
		return out, nil
	}
	chunks := tr.durations("pp.chunk")
	lat := ms(chunks)
	sort.Float64s(lat)
	chunkTail, _ := tail(lat, electTailP)
	var chunkNs float64
	for _, d := range chunks {
		chunkNs += float64(d.Nanoseconds())
	}
	steps := float64(roundS + interactS + skipS)
	share := func(x uint64) float64 {
		if steps == 0 {
			return 0
		}
		return float64(x) / steps
	}
	out.layer = layerMetrics(out, map[string]float64{
		"pp.ns_per_interaction": chunkNs / work,
		"pp.chunk_ms_p50":       median(lat),
		"pp.chunk_ms_tail":      chunkTail,
		"pp.round_share":        share(roundS),
		"pp.interact_share":     share(interactS),
		"pp.skip_share":         share(skipS),
		"pp.handovers":          float64(hand),
		"pp.live_states_max":    float64(liveMax),
		"registry.new_ms":       medianMs(builds),
	})
	return out, tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("trace-elect-seed%d.json", cfg.seed)))
}

// layerMetrics completes a workload's per-layer set: every per-layer
// metric the workload did not measure reads 0 (its layer does no work on
// that workload), and fail_ratio is added from the op counts.
func layerMetrics(out *outcome, measured map[string]float64) map[string]float64 {
	all := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		all[d.name] = 0
	}
	for k, v := range measured {
		if _, ok := all[k]; !ok {
			panic("perfbench: unlisted per-layer metric " + k)
		}
		all[k] = v
	}
	all["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	return all
}
