package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"slices"

	"reco/internal/api"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// verdict is the outcome of checking one distinct request's response, with
// its plan-quality sums over the request's coflows.
type verdict struct {
	err       error
	normCCT   float64 // Σ CCT_k / ocs.LowerBound(d_k, δ)
	reconfigs float64 // reconfigurations of the whole response
	coflows   int
}

// checkResponse verifies a response body against the request it answers.
// A single response's plan is replayed with ocs.ExecAllStop: it must drain
// the demand with the reported cct and reconfigs, and cct ≥ lowerBound =
// ocs.LowerBound(d, δ). A multi response's flows must pass
// FlowSchedule.Validate and CheckDemand and reproduce the reported ccts.
func checkResponse(r *request, body []byte) verdict {
	if r.path == pathSingle {
		return checkSingle(r, body)
	}
	return checkMulti(r, body)
}

func checkSingle(r *request, body []byte) verdict {
	var resp api.SingleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return verdict{err: fmt.Errorf("decode single response: %w", err)}
	}
	d := r.demands[0]
	cs := make(ocs.CircuitSchedule, len(resp.Schedule))
	for i, a := range resp.Schedule {
		cs[i] = ocs.Assignment{Perm: a.Perm, Dur: a.Dur}
	}
	got, err := ocs.ExecAllStop(d, cs, delta)
	if err != nil {
		return verdict{err: fmt.Errorf("replay plan: %w", err)}
	}
	lb := ocs.LowerBound(d, delta)
	switch {
	case got.CCT != resp.CCT:
		return verdict{err: fmt.Errorf("replayed cct %d, reported %d", got.CCT, resp.CCT)}
	case got.Reconfigs != resp.Reconfigs:
		return verdict{err: fmt.Errorf("replayed reconfigs %d, reported %d", got.Reconfigs, resp.Reconfigs)}
	case resp.LowerBound != lb:
		return verdict{err: fmt.Errorf("reported lowerBound %d, want %d", resp.LowerBound, lb)}
	case resp.CCT < lb:
		return verdict{err: fmt.Errorf("cct %d below lower bound %d", resp.CCT, lb)}
	}
	return verdict{normCCT: float64(resp.CCT) / float64(lb), reconfigs: float64(resp.Reconfigs), coflows: 1}
}

func checkMulti(r *request, body []byte) verdict {
	var resp api.MultiResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return verdict{err: fmt.Errorf("decode multi response: %w", err)}
	}
	k := len(r.demands)
	fs := make(schedule.FlowSchedule, len(resp.Flows))
	for i, f := range resp.Flows {
		fs[i] = schedule.FlowInterval{Start: f.Start, End: f.End, Gap: f.Gap, In: f.In, Out: f.Out, Coflow: f.Coflow}
	}
	if err := fs.Validate(r.demands[0].N(), k); err != nil {
		return verdict{err: err}
	}
	if err := fs.CheckDemand(r.demands); err != nil {
		return verdict{err: err}
	}
	if got := fs.CCTs(k); !slices.Equal(got, resp.CCTs) {
		return verdict{err: fmt.Errorf("flows give ccts %v, reported %v", got, resp.CCTs)}
	}
	v := verdict{reconfigs: float64(resp.Reconfigs), coflows: k}
	for i, d := range r.demands {
		v.normCCT += float64(resp.CCTs[i]) / float64(ocs.LowerBound(d, delta))
	}
	return v
}

// outcome summarizes the checked pass.
type outcome struct {
	attempted, ok int
	normCCT       float64 // mean over distinct coflows of CCT ÷ lower bound
	reconfigs     float64 // mean reconfigurations per distinct coflow
	firstErr      error
}

// verify checks every distinct response of ps once, then scores each
// request: it succeeds if it returned 200, its distinct response passed,
// and its body is byte-identical (by hash) to that first response. Plan
// quality is averaged over the distinct coflows served, so it describes
// the plans and not how often each was asked for.
func verify(p *plan, ps *pass) outcome {
	verdicts := make([]*verdict, len(p.reqs))
	hashes := make([]uint64, len(p.reqs))
	out := outcome{attempted: len(ps.seq)}
	var norm, reconf float64
	var coflows int
	fail := func(err error) {
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	for i, d := range ps.seq {
		if ps.status[i] != http.StatusOK {
			fail(fmt.Errorf("request %d: status %d", i, ps.status[i]))
			continue
		}
		v := verdicts[d]
		if v == nil {
			v = new(verdict)
			*v = checkResponse(&p.reqs[d], ps.first[d])
			verdicts[d] = v
			hashes[d] = maphash.Bytes(hashSeed, ps.first[d])
			if v.err == nil {
				norm += v.normCCT
				reconf += v.reconfigs
				coflows += v.coflows
			}
		}
		if v.err != nil {
			fail(fmt.Errorf("request %d: %w", i, v.err))
			continue
		}
		if ps.hash[i] != hashes[d] {
			fail(fmt.Errorf("request %d: body differs from an earlier response to the same request", i))
			continue
		}
		out.ok++
	}
	if coflows > 0 {
		out.normCCT = norm / float64(coflows)
		out.reconfigs = reconf / float64(coflows)
	}
	if len(ps.errs) > 0 {
		fail(ps.errs[0])
	}
	return out
}
