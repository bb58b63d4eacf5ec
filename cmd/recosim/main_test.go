package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

// docCommentAlgorithms extracts the algorithm names listed in main.go's doc
// comment: the first field of every indented comment line between the
// "capabilities:" marker and the "Example:" marker.
func docCommentAlgorithms(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("main.go")
	if err != nil {
		t.Fatalf("open main.go: %v", err)
	}
	defer f.Close()
	var names []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "package ") {
			break
		}
		if strings.Contains(line, "capabilities:") {
			in = true
			continue
		}
		if strings.Contains(line, "Example:") {
			break
		}
		if in && strings.HasPrefix(line, "//\t") {
			fields := strings.Fields(strings.TrimPrefix(line, "//\t"))
			if len(fields) > 0 {
				names = append(names, fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan main.go: %v", err)
	}
	return names
}

// TestUsageCommentMatchesRegistry keeps the command's doc comment in sync
// with the scheduler registry: same names, same order, nothing stale and
// nothing missing.
func TestUsageCommentMatchesRegistry(t *testing.T) {
	doc := docCommentAlgorithms(t)
	reg := algo.Names()
	if len(doc) == 0 {
		t.Fatal("no algorithm lines found in the doc comment")
	}
	if fmt.Sprint(doc) != fmt.Sprint(reg) {
		t.Fatalf("doc comment algorithms %v\nregistry %v\nupdate the usage comment atop main.go", doc, reg)
	}
}

// TestReadmeListsRegistry: every registered algorithm appears backticked in
// the repository README's algorithm list.
func TestReadmeListsRegistry(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	var missing []string
	for _, name := range algo.Names() {
		if !strings.Contains(string(readme), "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("README.md does not mention registered algorithms %v (backticked)", missing)
	}
}

// knobCase is one checkKnobs input and whether it must be accepted.
type knobCase struct {
	k       algo.Knobs
	faulted bool
	ok      bool
}

func runKnobCases(t *testing.T, cases []knobCase) {
	t.Helper()
	for _, tc := range cases {
		if err := checkKnobs(tc.k, tc.faulted); (err == nil) != tc.ok {
			t.Errorf("checkKnobs(%+v, faults=%v) = %v, want ok=%v", tc.k, tc.faulted, err, tc.ok)
		}
	}
}

// checkCap runs the capability gate recosim's Schedule call goes through
// (algo.Check) for the registered algorithm name on a small valid request.
func checkCap(t *testing.T, name string, k algo.Knobs) error {
	t.Helper()
	s, err := algo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := matrix.FromRows([][]int64{{0, 5}, {7, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return algo.Check(s, algo.Request{Demands: []*matrix.Matrix{d}, Delta: 1, C: 1, Knobs: k})
}

// TestCoresValidation: negative -cores and -cores K > 1 with -faults are
// rejected with clear errors (0 and 1 both mean the single switch), and
// K > 1 requires the cores capability.
func TestCoresValidation(t *testing.T) {
	runKnobCases(t, []knobCase{
		{algo.Knobs{Cores: -3}, false, false},
		{algo.Knobs{Cores: 2}, true, false},
		{algo.Knobs{}, true, true},
		{algo.Knobs{Cores: 1}, true, true},
		{algo.Knobs{Cores: 4}, false, true},
		{algo.Knobs{Cores: 4, K: 8, ElecFrac: 0.5}, false, true},
	})
	if err := checkCap(t, "reco-sin", algo.Knobs{Cores: 2}); !errors.Is(err, algo.ErrBadRequest) {
		t.Errorf("-cores 2 for a single-switch algorithm: %v, want ErrBadRequest", err)
	}
	if err := checkCap(t, "kcore", algo.Knobs{Cores: 8}); err != nil {
		t.Errorf("-cores 8 rejected for a cores-capable algorithm: %v", err)
	}
	if err := checkCap(t, "reco-sin", algo.Knobs{Cores: 1}); err != nil {
		t.Errorf("-cores 1 rejected for a single-switch algorithm: %v", err)
	}
}

// TestKValidation: -k < 0 and -k with -faults are rejected with clear
// errors, and k > 0 requires the sparse capability.
func TestKValidation(t *testing.T) {
	runKnobCases(t, []knobCase{
		{algo.Knobs{K: -1}, false, false},
		{algo.Knobs{K: 4}, true, false},
		{algo.Knobs{K: 0}, true, true},
		{algo.Knobs{K: 8}, false, true},
	})
	if err := checkCap(t, "reco-sin", algo.Knobs{K: 4}); !errors.Is(err, algo.ErrBadRequest) {
		t.Errorf("-k 4 for a dense-only algorithm: %v, want ErrBadRequest", err)
	}
	if err := checkCap(t, "reco-sparse", algo.Knobs{K: 4}); err != nil {
		t.Errorf("-k 4 rejected for a sparse-capable algorithm: %v", err)
	}
	if err := checkCap(t, "reco-sin", algo.Knobs{K: 0}); err != nil {
		t.Errorf("-k 0 rejected for a dense-only algorithm: %v", err)
	}
}

// TestElecFracValidation: -elec-frac outside [0, 1] (NaN included) and
// -elec-frac with -faults are rejected with clear errors, and a positive
// fraction requires the hybrid capability.
func TestElecFracValidation(t *testing.T) {
	runKnobCases(t, []knobCase{
		{algo.Knobs{ElecFrac: -0.1}, false, false},
		{algo.Knobs{ElecFrac: 1.5}, false, false},
		{algo.Knobs{ElecFrac: math.NaN()}, false, false},
		{algo.Knobs{ElecFrac: 0.2}, true, false},
		{algo.Knobs{ElecFrac: 0}, true, true},
		{algo.Knobs{ElecFrac: 0.5}, false, true},
	})
	if err := checkCap(t, "reco-sin", algo.Knobs{ElecFrac: 0.2}); !errors.Is(err, algo.ErrBadRequest) {
		t.Errorf("-elec-frac 0.2 for an all-optical algorithm: %v, want ErrBadRequest", err)
	}
	if err := checkCap(t, "hybrid-fluid", algo.Knobs{ElecFrac: 0.2}); err != nil {
		t.Errorf("-elec-frac 0.2 rejected for a hybrid-capable algorithm: %v", err)
	}
	if err := checkCap(t, "reco-sin", algo.Knobs{ElecFrac: 0}); err != nil {
		t.Errorf("-elec-frac 0 rejected for an all-optical algorithm: %v", err)
	}
}

// TestListAlgorithmsOutput: `-alg list` prints one line per registered
// scheduler, leading with its name.
func TestListAlgorithmsOutput(t *testing.T) {
	out := listAlgorithms()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	reg := algo.Names()
	if len(lines) != len(reg) {
		t.Fatalf("list has %d lines for %d registered algorithms:\n%s", len(lines), len(reg), out)
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != reg[i] {
			t.Errorf("line %d = %q, want it to lead with %q", i, line, reg[i])
		}
		if !strings.Contains(line, "[") {
			t.Errorf("line %d missing capability tags: %q", i, line)
		}
	}
}
