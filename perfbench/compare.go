package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// boundDef is one end-to-end metric's entry in BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds() ([]boundDef, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading bounds (run from the repository root): %w", err)
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return def.EndToEnd, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return recs, nil
}

// resultSet is one file's runs, split by workload and tracing.
type resultSet struct {
	path     string
	plain    map[string][]record // untraced runs per workload
	traced   map[string][]record
	failures int
}

func newResultSet(path string, recs []record) resultSet {
	s := resultSet{path: path, plain: map[string][]record{}, traced: map[string][]record{}}
	for _, r := range recs {
		if r.Trace == 1 {
			s.traced[r.Workload] = append(s.traced[r.Workload], r)
		} else {
			s.plain[r.Workload] = append(s.plain[r.Workload], r)
		}
		if !r.Correct {
			s.failures++
		}
	}
	return s
}

// summary is a metric's median and quartiles over runs.
type summary struct{ med, q1, q3 float64 }

func summarize(rs []record, metric string) summary {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.E2E[metric]; ok {
			xs = append(xs, v)
		}
	}
	q1, q3 := quartiles(xs)
	return summary{median(xs), q1, q3}
}

func (s summary) spread() float64 { return ratio(s.q3-s.q1, s.med) }

func (s summary) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.med, s.q1, s.q3)
}

// tailPercentiles lists the tail percentiles a set of runs reported.
func tailPercentiles(rs []record) string {
	seen := map[string]bool{}
	for _, r := range rs {
		seen[fmt.Sprintf("p%g", r.Tail.Percentile)] = true
	}
	return strings.Join(sortedKeys(seen), ",")
}

// compare prints each result set's medians, quartiles and spread beside
// the metric's bound, the tracing overhead where a set holds traced runs,
// and, given two sets, a per-metric verdict on the second against the
// first. It refuses result sets measured on different hosts and fails
// when any metric got worse by more than its bound.
func compare(w io.Writer, args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return errors.New("usage: perfbench compare OLD.jsonl [NEW.jsonl]")
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	var sets []resultSet
	var ref host
	for i, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			return err
		}
		if i == 0 {
			ref = recs[0].Host
		}
		for _, r := range recs {
			if !r.Host.sameMachine(ref) {
				return fmt.Errorf("refusing to compare across hosts: %s has a run on {%s}, %s was measured on {%s}",
					path, r.Host, args[0], ref)
			}
		}
		sets = append(sets, newResultSet(path, recs))
	}
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", ref.CPU, ref.NProc, ref.GOMAXPROCS, ref.Go)

	for _, s := range sets {
		fmt.Fprintf(w, "\n== %s (%d runs with a failed check)\n", s.path, s.failures)
		for _, wl := range sortedKeys(s.plain) {
			fmt.Fprintf(w, "%s: %d runs\n", wl, len(s.plain[wl]))
			for _, b := range bounds {
				sm := summarize(s.plain[wl], b.Name)
				mark := "ok"
				if sm.spread() > b.Bound {
					mark = "SPREAD ABOVE BOUND"
				}
				line := fmt.Sprintf("  %-14s %-40s spread %5.1f%% of median (bound %4.1f%%) %s",
					b.Name, sm, 100*sm.spread(), 100*b.Bound, mark)
				if tr := s.traced[wl]; len(tr) > 0 {
					line += fmt.Sprintf("; traced %.6g (%+.1f%%)", summarize(tr, b.Name).med,
						100*ratio(summarize(tr, b.Name).med-sm.med, sm.med))
				}
				fmt.Fprintln(w, line)
			}
		}
	}
	if len(sets) == 1 {
		return nil
	}

	old, cur := sets[0], sets[1]
	fmt.Fprintf(w, "\n== %s against %s\n", cur.path, old.path)
	worse := 0
	for _, wl := range sortedKeys(old.plain) {
		if len(cur.plain[wl]) == 0 {
			fmt.Fprintf(w, "%s: no runs in %s\n", wl, cur.path)
			continue
		}
		fmt.Fprintf(w, "%s:\n", wl)
		if pa, pc := tailPercentiles(old.plain[wl]), tailPercentiles(cur.plain[wl]); pa != pc {
			fmt.Fprintf(w, "  note: op_tail_ms is %s in %s and %s in %s\n", pa, old.path, pc, cur.path)
		}
		for _, b := range bounds {
			a, c := summarize(old.plain[wl], b.Name), summarize(cur.plain[wl], b.Name)
			change := ratio(c.med-a.med, a.med)
			loss := change
			if b.Better == "higher" {
				loss = -change
			}
			verdict := "within bound"
			switch {
			case loss > b.Bound:
				verdict = "WORSE THAN BOUND"
				worse++
			case max(a.spread(), c.spread()) > b.Bound:
				verdict = "unresolved (spread above bound)"
			}
			fmt.Fprintf(w, "  %-14s %-40s -> %-40s %+6.1f%% (bound %4.1f%%, %s is better) %s\n",
				b.Name, a, c, 100*change, 100*b.Bound, b.Better, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
