package service

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
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
