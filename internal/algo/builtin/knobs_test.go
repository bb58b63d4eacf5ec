package builtin_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"reco/internal/algo"
	"reco/internal/api"
	"reco/internal/matrix"
	"reco/internal/plancache"
)

// knobExamples holds one active, in-range value per KnobTable entry.
var knobExamples = map[string]algo.Knobs{
	"cores":     {Cores: 2},
	"k":         {K: 2},
	"elec_frac": {ElecFrac: 0.25},
}

// TestKnobTable holds every knob to its one definition. Registry-wide, the
// gate inside Schedule must reject each active knob an algorithm lacks the
// capability for and accept it where the capability is present. Per table
// entry, the knob must reach every consumer: recosim's flags, recoctl's
// single/multi/job-submit flags, both API request structs' JSON, the
// plan-cache fingerprint and docs/ARCHITECTURE.md.
func TestKnobTable(t *testing.T) {
	if len(knobExamples) != len(algo.KnobTable) {
		t.Fatalf("%d knob examples for %d table entries", len(knobExamples), len(algo.KnobTable))
	}
	d, err := matrix.FromRows([][]int64{{0, 50, 20}, {30, 0, 40}, {60, 10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	base := algo.Request{Demands: []*matrix.Matrix{d}, Delta: 10, C: 4}

	for _, s := range algo.All() {
		for i := range algo.KnobTable {
			kn := &algo.KnobTable[i]
			req := base
			req.Knobs = knobExamples[kn.Name]
			_, err := algo.MustGet(s.Name()).Schedule(context.Background(), req)
			if kn.Has(s.Caps()) {
				if err != nil {
					t.Errorf("%s with %s: %v", s.Name(), kn.Name, err)
				}
			} else if !errors.Is(err, algo.ErrBadRequest) {
				t.Errorf("%s lacks the %s capability but %s=%v returned %v, want ErrBadRequest",
					s.Name(), kn.Capability, kn.Name, kn.Value(req.Knobs), err)
			}
		}
	}

	usage := commandUsages(t)
	doc, err := os.ReadFile("../../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for i := range algo.KnobTable {
		kn := &algo.KnobTable[i]
		ex, ok := knobExamples[kn.Name]
		if !ok || !kn.Active(ex) {
			t.Errorf("%s: no active example value", kn.Name)
			continue
		}
		for cmd, out := range usage {
			if !strings.Contains(out, "  -"+kn.Flag()+" ") {
				t.Errorf("%s: %s has no -%s flag", kn.Name, cmd, kn.Flag())
			}
		}
		field := `"` + kn.Name + `":` + string(mustJSON(t, kn.Value(ex)))
		for _, wire := range []any{&api.SingleRequest{Knobs: ex}, &api.MultiRequest{Knobs: ex}} {
			if !bytes.Contains(mustJSON(t, wire), []byte(field)) {
				t.Errorf("%s: %T does not encode it as %s", kn.Name, wire, field)
			}
			dec := json.NewDecoder(strings.NewReader("{" + field + "}"))
			dec.DisallowUnknownFields()
			if err := dec.Decode(wire); err != nil {
				t.Errorf("%s: %T does not decode it: %v", kn.Name, wire, err)
			}
		}
		req := base
		req.Knobs = ex
		if plancache.Fingerprint(algo.NameRecoSin, req) == plancache.Fingerprint(algo.NameRecoSin, base) {
			t.Errorf("%s: does not change the plan-cache fingerprint", kn.Name)
		}
		if !bytes.Contains(doc, []byte("`"+kn.Name+"`")) {
			t.Errorf("%s: not named (backticked) in docs/ARCHITECTURE.md", kn.Name)
		}
	}
}

// commandUsages builds recosim and recoctl and returns the -h output of
// every command that takes request knobs, keyed by command line.
func commandUsages(t *testing.T) map[string]string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build the commands")
	}
	dir := t.TempDir()
	build := exec.Command(goBin, "build", "-o", dir, "reco/cmd/recosim", "reco/cmd/recoctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out := map[string]string{}
	for _, args := range [][]string{
		{"recosim", "-h"},
		{"recoctl", "single", "-h"},
		{"recoctl", "multi", "-h"},
		{"recoctl", "job", "submit", "-h"},
	} {
		// -h exits non-zero on some commands; the usage text is what counts.
		text, _ := exec.Command(filepath.Join(dir, args[0]), args[1:]...).CombinedOutput()
		out[strings.Join(args[:len(args)-1], " ")] = string(text)
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
