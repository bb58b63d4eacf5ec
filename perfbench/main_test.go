package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{999, 0.99, 0, false}, // only 9 samples beyond rank 990
		{1000, 0.99, 990, true},
		{5000, 0.99, 4950, true},
		{19, 0.50, 0, false},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	}
	for _, tc := range cases {
		got, ok := percentile(sorted(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one tiny workload and returns its parsed summary line.
func runTiny(t *testing.T, workload string, seed int64, trace int) summary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--tiny", "--seed", strconv.FormatInt(seed, 10),
		"--trace", strconv.Itoa(trace), "--trace-dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s seed %d trace %d: exit %d\n%s", workload, seed, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", workload, seed, sum.Correct, sum.Attempted, sum.Failed)
	}
	return sum
}

// TestTinyWorkloads runs every workload at tiny size on two seeds, in both
// modes, and checks that every metric BENCHMARK.json names is emitted with
// its unit, that every response passed its checks, and that each workload
// reaches the cache the way it was chosen to.
func TestTinyWorkloads(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, seed := range []int64{1, 2} {
			e2e := runTiny(t, w.Name, seed, 0)
			for _, m := range s.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s seed %d: end-to-end %s = %+v, want unit %s", w.Name, seed, m.Name, got, m.Unit)
				}
			}
			if got := e2e.Metrics["success_frac"].Value; got != 1 {
				t.Errorf("%s seed %d: success_frac %v", w.Name, seed, got)
			}

			layers := runTiny(t, w.Name, seed, 1)
			for _, m := range s.PerLayer {
				got, ok := layers.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s seed %d: per-layer %s = %+v, want unit %s", w.Name, seed, m.Name, got, m.Unit)
				}
			}
			hit := layers.Metrics["plancache.hit_ratio"].Value
			switch w.Name {
			case "single-cold":
				if hit != 0 {
					t.Errorf("single-cold seed %d: hit ratio %v, want 0", seed, hit)
				}
			case "multi-warm":
				if hit != 1 {
					t.Errorf("multi-warm seed %d: hit ratio %v, want 1", seed, hit)
				}
			}
		}
	}
}

// TestSeedsGiveTheSameWork checks, at full size, that a second seed draws
// different requests but the same amount of work: the same request count
// and a total size proxy (see weight) within a few percent.
func TestSeedsGiveTheSameWork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-size request sets")
	}
	for _, w := range workloads {
		sz := sizeFor(w, options{seconds: 25})
		var work [2]float64
		var first [2]string
		for i, seed := range []int64{1, 2} {
			p, err := w.build(seed, sz)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.timed) != sz.timed {
				t.Fatalf("%s seed %d: %d timed requests, want %d", w.name, seed, len(p.timed), sz.timed)
			}
			for _, d := range p.timed {
				work[i] += weight(p.reqs[d].demands...)
			}
			first[i] = string(p.reqs[p.timed[0]].body)
		}
		if first[0] == first[1] {
			t.Errorf("%s: seeds 1 and 2 start with the same request", w.name)
		}
		if r := work[1] / work[0]; r < 0.95 || r > 1.05 {
			t.Errorf("%s: timed work differs by a factor %.3f between seeds", w.name, r)
		}
	}
}
