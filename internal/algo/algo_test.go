package algo

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"reco/internal/matrix"
)

// fake is a minimal Scheduler for registry-mechanics tests. The algo package
// itself registers nothing, so these tests own every name they see.
type fake struct{ name string }

func (f fake) Name() string       { return f.name }
func (f fake) Describe() string   { return "fake scheduler " + f.name }
func (f fake) Caps() Capabilities { return Capabilities{SingleCoflow: true} }
func (f fake) Schedule(ctx context.Context, req Request) (*Result, error) {
	return &Result{CCTs: make([]int64, len(req.Demands))}, nil
}

func TestRegistryLookupAndOrder(t *testing.T) {
	Register(fake{name: "zz-test"})
	Register(fake{name: "aa-test"})
	Register(fake{name: "mm-test"})

	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"aa-test", "mm-test", "zz-test"} {
		s, err := Get(want)
		if err != nil {
			t.Fatalf("Get(%q): %v", want, err)
		}
		if s.Name() != want {
			t.Fatalf("Get(%q).Name() = %q", want, s.Name())
		}
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(names))
	}
	for i, s := range all {
		if s.Name() != names[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, s.Name(), names[i])
		}
	}
}

func TestRegistryUnknownEnumeratesValidNames(t *testing.T) {
	Register(fake{name: "known-test"})
	_, err := Get("no-such-algorithm")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("Get(unknown) = %v, want ErrUnknown", err)
	}
	if !strings.Contains(err.Error(), "known-test") {
		t.Fatalf("unknown-name error should enumerate valid names, got: %v", err)
	}
	if !strings.Contains(err.Error(), `"no-such-algorithm"`) {
		t.Fatalf("unknown-name error should quote the bad name, got: %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register(fake{name: ""}) })
	Register(fake{name: "dup-test"})
	mustPanic("duplicate", func() { Register(fake{name: "dup-test"}) })
	mustPanic("MustGet unknown", func() { MustGet("definitely-not-registered") })
}

func TestValidateRequest(t *testing.T) {
	d, err := matrix.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d.Set(0, 1, 5)
	small, err := matrix.New(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"valid", Request{Demands: []*matrix.Matrix{d}, Delta: 10, C: 4}, true},
		{"zero delta", Request{Demands: []*matrix.Matrix{d}}, true},
		{"no demands", Request{Delta: 10}, false},
		{"nil matrix", Request{Demands: []*matrix.Matrix{nil}, Delta: 10}, false},
		{"mixed dims", Request{Demands: []*matrix.Matrix{d, small}, Delta: 10}, false},
		{"negative delta", Request{Demands: []*matrix.Matrix{d}, Delta: -1}, false},
		{"single-switch cores", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{Cores: 1}}, true},
		{"negative cores", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{Cores: -1}}, false},
		{"negative k", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{K: -1}}, false},
		{"elec frac one", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{ElecFrac: 1}}, true},
		{"negative elec frac", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{ElecFrac: -0.1}}, false},
		{"elec frac above one", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{ElecFrac: 1.5}}, false},
		{"NaN elec frac", Request{Demands: []*matrix.Matrix{d}, Knobs: Knobs{ElecFrac: math.NaN()}}, false},
	}
	for _, tc := range cases {
		err := ValidateRequest(tc.req)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s: error %v is not ErrBadRequest", tc.name, err)
			}
		}
	}
}

// TestCheckAllocatesNothing: the gate runs on every request (twice on the
// API path: up front and inside the registry wrapper), so on a valid
// request it must not allocate.
func TestCheckAllocatesNothing(t *testing.T) {
	d, err := matrix.New(4)
	if err != nil {
		t.Fatal(err)
	}
	var s Scheduler = fake{name: "alloc-test"}
	req := Request{Demands: []*matrix.Matrix{d, d}, Delta: 10, C: 4, Knobs: Knobs{Cores: 1, ElecFrac: 0}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Check(s, req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Check allocated %v times per call", allocs)
	}
}
