package builtin

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
)

func kcoreReq(t *testing.T, seed int64, cores int) algo.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 10
	ds := make([]*matrix.Matrix, 3)
	for k := range ds {
		d, err := matrix.New(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					d.Set(i, j, 100+rng.Int63n(500))
				}
			}
		}
		ds[k] = d
	}
	return algo.Request{Demands: ds, Delta: 50, C: 4, Knobs: algo.Knobs{Cores: cores}}
}

func TestKCoreHonorsRequestCores(t *testing.T) {
	s, err := algo.Get(algo.NameKCore)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Caps().Cores {
		t.Fatal("kcore scheduler does not advertise the cores capability")
	}
	// Cores 0 and 1 are both the single switch and must agree exactly.
	r0, err := s.Schedule(context.Background(), kcoreReq(t, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Schedule(context.Background(), kcoreReq(t, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Error("Cores=0 and Cores=1 disagree")
	}
	// More cores must not hurt the batch makespan on this dense workload,
	// and the flow volume is conserved at every K.
	req := kcoreReq(t, 7, 0)
	var wantVol int64
	for _, d := range req.Demands {
		wantVol += d.Total()
	}
	prev := int64(-1)
	for _, k := range []int{1, 2, 4, 8} {
		r, err := s.Schedule(context.Background(), kcoreReq(t, 7, k))
		if err != nil {
			t.Fatalf("Cores=%d: %v", k, err)
		}
		var vol, worst int64
		for _, f := range r.Flows {
			vol += f.End - f.Start
		}
		for _, cct := range r.CCTs {
			if cct > worst {
				worst = cct
			}
		}
		if vol != wantVol {
			t.Errorf("Cores=%d: flows carry %d units, want %d", k, vol, wantVol)
		}
		if prev >= 0 && worst > prev {
			t.Errorf("Cores=%d makespan %d worse than previous %d", k, worst, prev)
		}
		prev = worst
	}
	// Negative core counts are malformed.
	if _, err := s.Schedule(context.Background(), kcoreReq(t, 7, -1)); err == nil {
		t.Error("negative Cores accepted")
	}
}
