package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"reco/internal/algo"
	"reco/internal/api"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
)

// Span names the benchmark records around each public layer entry point.
const (
	spanRoundTrip = "http.roundtrip"
	spanDecode    = "api.decode"
	spanKey       = "plancache.key"
	spanSchedule  = "algo.schedule"
	spanEncode    = "api.encode"
	spanExec      = "ocs.exec"
)

// stageMetrics maps the program's own stage spans (obs.Sink.Stage) to the
// per-layer metric each feeds.
var stageMetrics = []struct{ stage, metric string }{
	{"regularize", "core.regularize_ms"},
	{"stuff", "matrix.stuff_ms"},
	{"bvn_decompose", "bvn.decompose_ms"},
	{"ordering", "ordering.primal_dual_ms"},
	{"packet_schedule", "packet.list_schedule_ms"},
	{"reco_mul_transform", "core.reco_mul_ms"},
}

// traceCap bounds the in-memory trace: a round trip and a handful of stage
// spans per timed request, and the layer spans with their stages per
// distinct request, with ample headroom. A run that overflows it fails.
func traceCap(p *plan) int {
	return 16*(len(p.timed)+len(p.reqs)) + 1<<16
}

// layerStats is what the layer pass counts outside the trace.
type layerStats struct {
	occ      map[int]int // timed occurrences per distinct request
	order    []int       // distinct requests, in first-occurrence order
	coflows  int         // coflows scheduled
	bvnTerms int64       // bvn_terms_total over the pass
}

// layerPass replays each distinct timed request once through the public
// entry point of every layer, on one goroutine after the HTTP traffic has
// stopped, so every stage span the program emits in the meantime belongs
// to the algo.schedule span that encloses it. All spans of a request carry
// its ID as the req argument.
func layerPass(srv *server, p *plan) (layerStats, error) {
	tr := obs.Current().Trace
	ls := layerStats{occ: map[int]int{}}
	for _, d := range p.timed {
		if ls.occ[d] == 0 {
			ls.order = append(ls.order, d)
		}
		ls.occ[d]++
	}
	terms := srv.reg.Counter("bvn_terms_total")
	terms0 := terms.Value()
	ctx := context.Background()
	for _, d := range ls.order {
		r := &p.reqs[d]
		id := map[string]any{"req": d}

		end := tr.Begin("bench", spanDecode)
		areq, err := decodeRequest(r)
		end(id)
		if err != nil {
			return ls, err
		}

		end = tr.Begin("bench", spanKey)
		_ = srv.api.Cache().Key(r.alg, areq)
		end(id)

		sched, err := algo.Get(r.alg)
		if err != nil {
			return ls, err
		}
		end = tr.Begin("bench", spanSchedule)
		res, err := sched.Schedule(ctx, areq)
		end(id)
		if err != nil {
			return ls, fmt.Errorf("layer pass: schedule request %d: %w", d, err)
		}
		ls.coflows += len(areq.Demands)

		end = tr.Begin("bench", spanEncode)
		_, err = encodeResponse(r, areq, res)
		end(id)
		if err != nil {
			return ls, err
		}

		if len(res.Schedules) > 0 {
			order := seq(0, len(areq.Demands))
			end = tr.Begin("bench", spanExec)
			_, err = ocs.ExecSequential(areq.Demands, res.Schedules, order, delta)
			end(id)
			if err != nil {
				return ls, fmt.Errorf("layer pass: execute request %d: %w", d, err)
			}
		}
	}
	ls.bvnTerms = terms.Value() - terms0
	return ls, nil
}

// decodeRequest is the server's decode step: json.Unmarshal into the wire
// type, then matrix.FromRows per demand, into the registry request shape.
func decodeRequest(r *request) (algo.Request, error) {
	var rowsList [][][]int64
	areq := algo.Request{Delta: delta, C: c}
	if r.path == pathSingle {
		var sr api.SingleRequest
		if err := json.Unmarshal(r.body, &sr); err != nil {
			return areq, err
		}
		rowsList = [][][]int64{sr.Demand}
	} else {
		var mr api.MultiRequest
		if err := json.Unmarshal(r.body, &mr); err != nil {
			return areq, err
		}
		rowsList, areq.Weights, areq.C = mr.Demands, mr.Weights, mr.C
	}
	for _, rs := range rowsList {
		d, err := matrix.FromRows(rs)
		if err != nil {
			return areq, err
		}
		areq.Demands = append(areq.Demands, d)
	}
	return areq, nil
}

// encodeResponse rebuilds the wire response from the result and marshals
// it, as the server's render and encode steps do.
func encodeResponse(r *request, areq algo.Request, res *algo.Result) ([]byte, error) {
	if r.path == pathSingle {
		resp := api.SingleResponse{
			Schedule:   []api.Assignment{},
			CCT:        res.CCTs[0],
			Reconfigs:  res.Reconfigs,
			LowerBound: ocs.LowerBound(areq.Demands[0], areq.Delta),
		}
		if len(res.Schedules) == 1 {
			resp.Schedule = make([]api.Assignment, len(res.Schedules[0]))
			for i, a := range res.Schedules[0] {
				resp.Schedule[i] = api.Assignment{Perm: a.Perm, Dur: a.Dur}
			}
		}
		return json.Marshal(resp)
	}
	resp := api.MultiResponse{CCTs: res.CCTs, Reconfigs: res.Reconfigs, Flows: make([]api.Flow, len(res.Flows))}
	for i, f := range res.Flows {
		resp.Flows[i] = api.Flow{Start: f.Start, End: f.End, Gap: f.Gap, In: f.In, Out: f.Out, Coflow: f.Coflow}
	}
	return json.Marshal(resp)
}

// writeTrace writes the tracer's spans as a Chrome trace file.
func writeTrace(dir, workload string, seed int64, tr *obs.Tracer) (string, error) {
	if n := tr.Dropped(); n > 0 {
		return "", fmt.Errorf("trace ring overflowed by %d events", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}

// span is one complete ("X") event read back from a Chrome trace, in µs.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Args map[string]any `json:"args"`
}

func (s span) req() int {
	v, _ := s.Args["req"].(float64)
	return int(v)
}

func readTrace(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("read trace %s: %w", path, err)
	}
	out := doc.TraceEvents[:0]
	for _, s := range doc.TraceEvents {
		if s.Ph == "X" {
			out = append(out, s)
		}
	}
	return out, nil
}

// perLayer derives the per-layer metrics: span times from the traced run's
// Chrome trace, counters from the untraced run's timed phase.
func perLayer(p *plan, plain, traced *runStats, tracePath string) ([]metric, error) {
	spans, err := readTrace(tracePath)
	if err != nil {
		return nil, err
	}
	ls := traced.layer
	// Bench spans of the layer pass, µs per distinct request and layer.
	dur := map[string]map[int]int64{}
	var scheds []span
	var stages []span
	for _, s := range spans {
		switch {
		case s.Cat == "stage":
			stages = append(stages, s)
		case s.Cat == "bench" && s.Name != spanRoundTrip:
			if dur[s.Name] == nil {
				dur[s.Name] = map[int]int64{}
			}
			dur[s.Name][s.req()] += s.Dur
			if s.Name == spanSchedule {
				scheds = append(scheds, s)
			}
		}
	}
	// Attribute each stage span to the schedule span it starts inside.
	sort.Slice(scheds, func(a, b int) bool { return scheds[a].TS < scheds[b].TS })
	stageUS := map[string]int64{}
	var childUS int64
	for _, st := range stages {
		i := sort.Search(len(scheds), func(i int) bool { return scheds[i].TS > st.TS }) - 1
		if i < 0 || st.TS > scheds[i].TS+scheds[i].Dur {
			continue // an HTTP-phase stage, outside the layer pass
		}
		stageUS[st.Name] += st.Dur
		childUS += st.Dur
	}

	// perReq weights a layer's per-distinct-request time by how often the
	// timed sequence sent that request; perComputed averages over the
	// distinct requests the pass scheduled.
	nTimed := float64(len(p.timed))
	computed := float64(len(ls.order))
	perReq := func(name string) float64 {
		var total float64
		for d, us := range dur[name] {
			total += float64(us) * float64(ls.occ[d])
		}
		return total / 1000 / nTimed
	}
	var schedUS int64
	for _, us := range dur[spanSchedule] {
		schedUS += us
	}
	selfUS := schedUS - childUS
	if selfUS < 0 {
		selfUS = 0
	}

	ps := plain.ps
	var clientSec float64
	for _, l := range ps.lat {
		clientSec += l.Seconds()
	}
	delta := func(name, suffix string) float64 {
		return plain.srvAfter.family(name, suffix) - plain.srvBefore.family(name, suffix)
	}
	hits, misses := delta("plancache_hits_total", ""), delta("plancache_misses_total", "")
	lookups := delta("plancache_lookup_seconds", ".count")
	var hitRatio, lookupMS float64
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	if lookups > 0 {
		lookupMS = delta("plancache_lookup_seconds", ".sum") * 1000 / lookups
	}
	var termsPerCoflow float64
	if ls.coflows > 0 {
		termsPerCoflow = float64(ls.bvnTerms) / float64(ls.coflows)
	}

	out := []metric{
		{"api.decode_ms", perReq(spanDecode), "ms"},
		{"api.encode_ms", perReq(spanEncode), "ms"},
		{"http.transport_ms", (clientSec - delta("http_request_seconds", ".sum")) * 1000 / nTimed, "ms"},
		{"plancache.key_ms", perReq(spanKey), "ms"},
		{"plancache.lookup_ms", lookupMS, "ms"},
		{"plancache.hit_ratio", hitRatio, "ratio"},
		{"plancache.evictions_per_req", delta("plancache_evictions_total", "") / nTimed, "count"},
		{"plancache.coalesced_per_req", delta("plancache_coalesced_total", "") / nTimed, "count"},
		{"plancache.bytes_mb", plain.srvAfter.family("plancache_bytes", "") / (1 << 20), "MB"},
		{"algo.schedule_ms", float64(schedUS) / 1000 / computed, "ms"},
		{"algo.schedule_self_ms", float64(selfUS) / 1000 / computed, "ms"},
	}
	for _, sm := range stageMetrics {
		out = append(out, metric{sm.metric, float64(stageUS[sm.stage]) / 1000 / computed, "ms"})
	}
	out = append(out,
		metric{"bvn.terms_per_coflow", termsPerCoflow, "count"},
		metric{"ocs.exec_ms", perReq(spanExec), "ms"},
		metric{"runtime.gc_cpu_ms", (plain.after.gcCPU - plain.before.gcCPU) * 1000 / nTimed, "ms"},
		metric{"runtime.gc_cycles_per_kreq", float64(plain.after.gcCycles-plain.before.gcCycles) * 1000 / nTimed, "count"},
		metric{"obs.trace_overhead_frac", traced.ps.wall.Seconds()/ps.wall.Seconds() - 1, "frac"},
	)
	return out, nil
}
