package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"reco/internal/algo"
)

func TestAlgorithmsEndpoint(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()

	resp, err := client.Algorithms(context.Background())
	if err != nil {
		t.Fatalf("Algorithms: %v", err)
	}
	var names []string
	for _, a := range resp.Algorithms {
		names = append(names, a.Name)
		if a.Description == "" {
			t.Errorf("%s: empty description", a.Name)
		}
	}
	if !reflect.DeepEqual(names, algo.Names()) {
		t.Fatalf("endpoint lists %v, registry has %v", names, algo.Names())
	}
	// Spot-check capabilities: sunflow is the registry's not-all-stop entry
	// and kcore its only cores-capable scheduler.
	for _, a := range resp.Algorithms {
		if a.Name == algo.NameSunflow && !a.Capabilities.NotAllStop {
			t.Errorf("sunflow should report the not-all-stop capability")
		}
		if a.Name == algo.NameKCore && !a.Capabilities.Cores {
			t.Errorf("kcore should report the cores capability")
		}
	}
}

func TestAlgorithmsMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/algorithms", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/algorithms = %d, want 405", resp.StatusCode)
	}
}

// TestScheduleSingleAlgorithmField: the historical default is reco-sin, an
// explicit "reco-sin" is byte-identical to it, and other registered
// algorithms are reachable through the same endpoint.
func TestScheduleSingleAlgorithmField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demand := [][]int64{
		{104, 109, 102},
		{103, 105, 107},
		{108, 101, 106},
	}

	def, err := client.ScheduleSingle(context.Background(), SingleRequest{Demand: demand, Delta: 100})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	if def.CCT != 618 || def.Reconfigs != 3 || def.LowerBound != 615 {
		t.Fatalf("default = CCT %d, reconfigs %d, LB %d; want 618, 3, 615",
			def.CCT, def.Reconfigs, def.LowerBound)
	}

	explicit, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameRecoSin})
	if err != nil {
		t.Fatalf("explicit reco-sin: %v", err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Fatalf("explicit reco-sin differs from the default:\n%+v\n%+v", explicit, def)
	}

	sol, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameSolstice})
	if err != nil {
		t.Fatalf("solstice: %v", err)
	}
	if sol.CCT <= 0 || len(sol.Schedule) == 0 {
		t.Fatalf("solstice returned CCT %d with %d assignments", sol.CCT, len(sol.Schedule))
	}
}

func TestScheduleSingleUnknownAlgorithm(t *testing.T) {
	srv, _ := newTestServer(t)
	defer srv.Close()
	body, _ := json.Marshal(SingleRequest{
		Demand: [][]int64{{0, 1}, {1, 0}}, Delta: 10, Algorithm: "definitely-not-real",
	})
	resp, err := http.Post(srv.URL+"/v1/schedule/single", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm status = %d, want 400", resp.StatusCode)
	}
	var apiErr errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Error == "" {
		t.Fatal("error body should enumerate valid algorithm names")
	}
}

// TestScheduleMultiAlgorithmField: the multi endpoint defaults to reco-mul
// and serves any registered scheduler by name.
func TestScheduleMultiAlgorithmField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demands := [][][]int64{
		{{0, 400, 0}, {0, 0, 400}, {400, 0, 0}},
		{{0, 0, 400}, {400, 0, 0}, {0, 400, 0}},
	}

	def, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4})
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	explicit, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameRecoMul})
	if err != nil {
		t.Fatalf("explicit reco-mul: %v", err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Fatalf("explicit reco-mul differs from the default")
	}

	lp, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameLPIIGB})
	if err != nil {
		t.Fatalf("lp-ii-gb: %v", err)
	}
	if len(lp.CCTs) != len(demands) {
		t.Fatalf("lp-ii-gb returned %d CCTs for %d coflows", len(lp.CCTs), len(demands))
	}
}

// TestScheduleMultiCoresField: the cores field reaches the scheduler —
// cores 0 and 1 agree on the single switch, a wider fabric is served, and a
// negative core count is a 400, not a crash.
func TestScheduleMultiCoresField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demands := [][][]int64{
		{{0, 400, 300}, {200, 0, 400}, {400, 100, 0}},
		{{0, 0, 400}, {400, 0, 0}, {0, 400, 0}},
	}

	k0, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore})
	if err != nil {
		t.Fatalf("kcore cores=0: %v", err)
	}
	k1, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: 1}})
	if err != nil {
		t.Fatalf("kcore cores=1: %v", err)
	}
	if !reflect.DeepEqual(k0, k1) {
		t.Error("cores 0 and 1 disagree on the single switch")
	}
	k2, err := client.ScheduleMulti(context.Background(),
		MultiRequest{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: 2}})
	if err != nil {
		t.Fatalf("kcore cores=2: %v", err)
	}
	if len(k2.CCTs) != len(demands) {
		t.Fatalf("cores=2 returned %d CCTs for %d coflows", len(k2.CCTs), len(demands))
	}

	for _, bad := range []MultiRequest{
		{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameKCore, Knobs: algo.Knobs{Cores: -2}},
		{Demands: demands, Delta: 100, C: 4, Algorithm: algo.NameRecoMul, Knobs: algo.Knobs{Cores: 3}},
	} {
		body, _ := json.Marshal(bad)
		resp, err := http.Post(srv.URL+"/v1/schedule/multi", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("cores=%d on %s: status = %d, want 400", bad.Cores, bad.Algorithm, resp.StatusCode)
		}
	}
}

// TestScheduleSingleElecFracField: the elec_frac knob reaches the
// hybrid-fluid scheduler — 0 means the documented default, so it matches an
// explicit 0.1 — and is capability-gated: a positive fraction on an
// algorithm without the hybrid capability, or a fraction outside [0, 1], is
// a 400, not a silently ignored knob.
func TestScheduleSingleElecFracField(t *testing.T) {
	srv, client := newTestServer(t)
	defer srv.Close()
	demand := [][]int64{
		{900, 12, 0},
		{0, 850, 9},
		{14, 0, 700},
	}

	def, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid})
	if err != nil {
		t.Fatalf("hybrid-fluid default: %v", err)
	}
	explicit, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 0.1}})
	if err != nil {
		t.Fatalf("hybrid-fluid elec_frac=0.1: %v", err)
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Error("elec_frac 0 (default) and 0.1 disagree")
	}
	half, err := client.ScheduleSingle(context.Background(),
		SingleRequest{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 0.5}})
	if err != nil {
		t.Fatalf("hybrid-fluid elec_frac=0.5: %v", err)
	}
	if half.CCT <= 0 {
		t.Fatalf("elec_frac=0.5 returned CCT %d", half.CCT)
	}

	for _, bad := range []SingleRequest{
		{Demand: demand, Delta: 100, Algorithm: algo.NameRecoSin, Knobs: algo.Knobs{ElecFrac: 0.2}},
		{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: -0.1}},
		{Demand: demand, Delta: 100, Algorithm: algo.NameHybridFluid, Knobs: algo.Knobs{ElecFrac: 1.7}},
	} {
		body, _ := json.Marshal(bad)
		resp, err := http.Post(srv.URL+"/v1/schedule/single", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("elec_frac=%v on %s: status = %d, want 400", bad.ElecFrac, bad.Algorithm, resp.StatusCode)
		}
	}
}
