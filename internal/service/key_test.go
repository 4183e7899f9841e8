package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"popproto/internal/registry"
)

// The canonical keys and run ids name cached and stored results, so
// their bytes may never change. These are the fmt forms they were first
// defined with, kept as the oracle for the strconv builders.

func oracleJobKey(s JobSpec) string {
	return fmt.Sprintf("%s n=%d engine=%s seed=%d m=%d maxpt=%g verify=%d",
		s.Protocol, s.N, s.Engine, s.Seed, s.M, s.MaxParallelTime, s.Verify)
}

func oracleExperimentKey(s ExperimentSpec) string {
	return fmt.Sprintf("%s r=%d ci=%g min=%d", oracleJobKey(s.jobPart()), s.Replicates, s.CI, s.MinReplicates)
}

func oracleSweepKey(s SweepSpec) string {
	ns := make([]string, len(s.Ns))
	for i, n := range s.Ns {
		ns[i] = fmt.Sprint(n)
	}
	ms := make([]string, len(s.Ms))
	for i, m := range s.Ms {
		ms[i] = fmt.Sprint(m)
	}
	return fmt.Sprintf("sweep %s ns=%s ms=%s engine=%s seed=%d maxpt=%g r=%d ci=%g min=%d",
		strings.Join(s.Protocols, ","), strings.Join(ns, ","), strings.Join(ms, ","),
		s.Engine, s.Seed, s.MaxParallelTime, s.Replicates, s.CI, s.MinReplicates)
}

func oracleRunID(prefix, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%s%016x", prefix, h.Sum64())
}

func FuzzCanonicalKey(f *testing.F) {
	f.Add("pll", 1000, "count", uint64(11), 0, 40.0, uint64(0), 4, 0.0, 0, 300, -1)
	f.Add("angluin", 100_000, "hybrid", uint64(1)<<63, 17, 0.0, uint64(5), 200, 0.05, 16, 1, 0)
	f.Add("", -1, "", uint64(0), -5, 1e300, ^uint64(0), -2, 1e-9, -3, 0, 7)
	f.Add("a,b é", 1<<40, "auto", uint64(3), 1, 2.5e-320, uint64(1), 1, 0.999, 1, -9, 1<<31)
	f.Fuzz(func(t *testing.T, protocol string, n int, engine string, seed uint64, m int,
		maxpt float64, verify uint64, replicates int, ci float64, minReps int, n2, m2 int,
	) {
		job := JobSpec{Protocol: protocol, N: n, Engine: engine, Seed: seed, M: m, MaxParallelTime: maxpt, Verify: verify}
		exp := ExperimentSpec{Protocol: protocol, N: n, Engine: engine, Seed: seed, M: m, MaxParallelTime: maxpt,
			Replicates: replicates, CI: ci, MinReplicates: minReps}
		sw := SweepSpec{Protocols: strings.Split(protocol, ","), Ns: []int{n, n2}, Ms: []int{m, m2}[:max(0, m2%3)],
			Engine: engine, Seed: seed, MaxParallelTime: maxpt, Replicates: replicates, CI: ci, MinReplicates: minReps}
		for _, c := range []struct{ prefix, got, want string }{
			{"j", job.key(), oracleJobKey(job)},
			{"e", exp.key(), oracleExperimentKey(exp)},
			{"s", sw.key(), oracleSweepKey(sw)},
		} {
			if c.got != c.want {
				t.Fatalf("key %q, want %q", c.got, c.want)
			}
			if got, want := runID(c.prefix, c.got), oracleRunID(c.prefix, c.want); got != want {
				t.Fatalf("run id of %q = %q, want %q", c.got, got, want)
			}
		}
	})
}

// FuzzSubmitSpec runs what a POST to /v1/jobs, /v1/experiments and
// /v1/sweeps runs before submission — strict JSON decode, canonicalize,
// key — over two bodies, each decoded as every kind. Properties: nothing
// panics; a spec that fails to canonicalize yields a bad-spec error
// (answered 400) and no canonical spec to key; and two specs that
// canonicalize get equal keys exactly when their canonical specs are
// equal.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range []string{
		`{"protocol": "pll", "n": 100000, "engine": "count", "seed": 42}`,
		`{"protocol": "pll", "n": 20000, "engine": "count", "seed": 42, "replicates": 6}`,
		`{"protocols": ["pll"], "ns": [500, 1000, 2000], "engine": "count", "replicates": 3}`,
		`{"protocol": "pll", "n": 2000, "engine": "auto", "seed": 7}`,
		`{"protocol": "pll", "n": 100, "flux": 1}`,
		`{"protocol": "paxos", "n": 100}`,
		`{"protocol": "pll", "n": 1}`,
		`{"protocol": "pll", "n": 100, "engine": "gpu"}`,
		`{"protocol": "angluin", "n": 100, "m": 8}`,
		`{"protocol": "pll", "n": 900, "m": 2}`,
		`{"protocol": "pll", "n": 100, "maxParallelTime": -3}`,
		`{"protocol": "pll", "n": 100, "replicates": 4, "ci": 2}`,
		`{"ns": [100], "replicates": 2}`,
		`{"protocols": ["pll"], "ns": [100], "replicates": 2, "ci": 2}`,
	} {
		f.Add(body, `{"protocol": "pll", "n": 100000, "engine": "count", "seed": 42, "replicates": 1}`)
	}
	f.Add(`{"protocol": "pll", "n": 1000, "maxParallelTime": 0}`, `{"protocol": "pll", "n": 1000, "maxParallelTime": -0}`)
	f.Add(`{"protocols": ["pll"], "ns": [1000], "replicates": 2, "ci": 0}`,
		`{"protocols": ["pll", "pll"], "ns": [1000, 1000], "ms": [0], "replicates": 2, "ci": -0}`)
	m := NewManager(Options{Workers: 1})
	f.Cleanup(m.Close)
	f.Fuzz(func(t *testing.T, a, b string) {
		checkSpecKeys(t, a, b, func(s JobSpec) (JobSpec, error) {
			c, _, _, _, err := m.Canonicalize(s)
			return c, err
		}, JobSpec.key)
		checkSpecKeys(t, a, b, func(s ExperimentSpec) (ExperimentSpec, error) {
			c, _, err := m.CanonicalizeExperiment(s)
			return c, err
		}, ExperimentSpec.key)
		checkSpecKeys(t, a, b, func(s SweepSpec) (SweepSpec, error) {
			c, _, err := m.CanonicalizeSweep(s)
			return c, err
		}, SweepSpec.key)
	})
}

// checkSpecKeys decodes bodies a and b as S the way handleSubmit does
// and checks FuzzSubmitSpec's properties on those that decode.
func checkSpecKeys[S any](t *testing.T, a, b string, canonicalize func(S) (S, error), key func(S) string) {
	var canon []S
	for _, body := range []string{a, b} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var spec S
		if dec.Decode(&spec) != nil {
			continue
		}
		c, err := canonicalize(spec)
		if err != nil {
			if !errors.Is(err, registry.ErrBadSpec) {
				t.Fatalf("%T %s: error %v does not wrap registry.ErrBadSpec", spec, body, err)
			}
			if !reflect.ValueOf(c).IsZero() {
				t.Fatalf("%T %s: error %v came with canonical spec %+v", spec, body, err, c)
			}
			continue
		}
		canon = append(canon, c)
	}
	if len(canon) == 2 {
		ka, kb := key(canon[0]), key(canon[1])
		if (ka == kb) != reflect.DeepEqual(canon[0], canon[1]) {
			t.Fatalf("canonical specs %+v and %+v: keys %q and %q", canon[0], canon[1], ka, kb)
		}
	}
}
