package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"reco/internal/algo"
	"reco/internal/api"
	"reco/internal/matrix"
	"reco/internal/plancache"
	"reco/internal/workload"
)

const (
	pathSingle = "/v1/schedule/single"
	pathMulti  = "/v1/schedule/multi"

	delta = 100 // reconfiguration delay δ in ticks, on every workload
	c     = 4   // Reco-Mul transmission threshold on multi requests
)

// request is one distinct scheduling request, encoded during set-up so the
// timed phase does no client-side JSON work.
type request struct {
	path    string           // endpoint it is posted to
	alg     string           // the algorithm the server resolves for it
	body    []byte           // encoded JSON body
	demands []*matrix.Matrix // its coflows, for the response checks
}

// plan is one seeded workload instance: the distinct requests and the index
// sequences into them that the set-up and the timed phase send, in order.
type plan struct {
	reqs  []request
	warm  []int
	timed []int
}

// size scales a workload. The full sizes are derived from --seconds; the
// tests use tiny ones.
type size struct {
	n     int // fabric ports
	pool  int // distinct requests drawn from (multi-warm, mixed-churn)
	warm  int // requests sent during set-up
	timed int // requests in the timed phase
}

// workloadDef is one benchmark workload: how its requests are made and how
// the server and client are configured.
type workloadDef struct {
	name    string
	clients int
	opts    api.Options
	// rps is a nominal timed throughput, used only to turn --seconds into
	// a fixed request count; the count never depends on a measurement.
	rps   float64
	full  size // full size, but for timed (see sizeFor)
	tiny  size
	build func(seed int64, sz size) (*plan, error)
}

var workloads = []*workloadDef{
	{
		name:    "single-cold",
		clients: 1,
		rps:     48,
		full:    size{n: 128, warm: 60},
		tiny:    size{n: 16, warm: 8, timed: 1000},
		build:   buildSingleCold,
	},
	{
		name: "multi-warm",
		// One client: with two, both vCPUs of a shared 2-vCPU host stay busy
		// and the run-to-run spread of p50 reached 43 %; one client cut the
		// throughput range of alternating runs from 20 % to 7 % (README).
		clients: 1,
		rps:     400,
		full:    size{n: 32, pool: 512},
		tiny:    size{n: 8, pool: 8, timed: 1000},
		build:   buildMultiWarm,
	},
	{
		name:    "mixed-churn",
		clients: 2,
		opts:    api.Options{Cache: plancache.Config{MaxEntries: 64}},
		rps:     2400,
		full:    size{n: 32, pool: 256, warm: 2000},
		tiny:    size{n: 8, pool: 32, warm: 40, timed: 1000},
		build:   buildMixedChurn,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent generator seed for one stream of a run.
func subSeed(seed int64, stream int64) int64 {
	return seed*1_000_003 + stream*7_919
}

// warmSeed seeds the single-cold warm-up prefix. It is the same under every
// run seed, so setup_s measures the same work in every run; the timed
// coflows are still kept disjoint from it.
const warmSeed = -1

// buildSingleCold makes sz.warm + sz.timed distinct paper-mix coflows, each
// its own reco-sin request. The warm prefix and the timed set come from
// separate Generate calls, so each carries the exact Table I/II class mix.
func buildSingleCold(seed int64, sz size) (*plan, error) {
	seen := map[[32]byte]bool{}
	warm, err := stratifiedCoflows(sz.n, sz.warm, subSeed(warmSeed, 1), seen)
	if err != nil {
		return nil, err
	}
	timed, err := stratifiedCoflows(sz.n, sz.timed, subSeed(seed, 2), seen)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	for _, d := range append(warm, timed...) {
		r, err := singleRequest(d)
		if err != nil {
			return nil, err
		}
		p.reqs = append(p.reqs, r)
	}
	p.warm = seq(0, len(warm))
	p.timed = seq(len(warm), len(p.reqs))
	return p, nil
}

// buildMultiWarm makes a pool of sz.pool distinct 8-coflow batches, all sent
// once during set-up, and a timed stream of uniform draws over the pool.
func buildMultiWarm(seed int64, sz size) (*plan, error) {
	const batch = 8
	ds, err := stratifiedCoflows(sz.n, sz.pool*batch, subSeed(seed, 1), map[[32]byte]bool{})
	if err != nil {
		return nil, err
	}
	p := &plan{}
	for b := 0; b < sz.pool; b++ {
		r, err := multiRequest(ds[b*batch : (b+1)*batch])
		if err != nil {
			return nil, err
		}
		p.reqs = append(p.reqs, r)
	}
	p.warm = seq(0, sz.pool)
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	p.timed = make([]int, sz.timed)
	for i := range p.timed {
		p.timed[i] = rng.Intn(sz.pool)
	}
	return p, nil
}

// buildMixedChurn makes sz.pool distinct requests, half single (reco-sin)
// and half 4-coflow multi (reco-mul), and one Zipf(s=1.1) stream over their
// popularity ranks: its first sz.warm draws run in during set-up and the
// next sz.timed are timed. Ranks alternate single and multi. Within a kind,
// rank j goes to the request at size quantile bitReverse(j)+½ (mod 1), so
// the most popular requests are of median size and every band of ranks
// spans the size range: the popular head, and with it the work of a run,
// has the same size mix under every seed.
func buildMixedChurn(seed int64, sz size) (*plan, error) {
	const batch = 4
	half := sz.pool / 2
	if half < 2 || half&(half-1) != 0 {
		return nil, fmt.Errorf("mixed-churn pool %d: half of it must be a power of two", sz.pool)
	}
	seen := map[[32]byte]bool{}
	singles, err := stratifiedCoflows(sz.n, half, subSeed(seed, 1), seen)
	if err != nil {
		return nil, err
	}
	multis, err := stratifiedCoflows(sz.n, half*batch, subSeed(seed, 2), seen)
	if err != nil {
		return nil, err
	}
	kinds := [2][]request{make([]request, half), make([]request, half)}
	for k := 0; k < half; k++ {
		if kinds[0][k], err = singleRequest(singles[k]); err != nil {
			return nil, err
		}
		if kinds[1][k], err = multiRequest(multis[k*batch : (k+1)*batch]); err != nil {
			return nil, err
		}
	}
	p := &plan{reqs: make([]request, 0, 2*half)}
	for i := range kinds {
		rs := kinds[i]
		sort.SliceStable(rs, func(a, b int) bool { return weight(rs[a].demands...) < weight(rs[b].demands...) })
	}
	for j := 0; j < half; j++ {
		pos := (bitReverse(j, half) + half/2) % half
		p.reqs = append(p.reqs, kinds[0][pos], kinds[1][pos])
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(p.reqs)-1))
	stream := make([]int, sz.warm+sz.timed)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}
	p.warm, p.timed = stream[:sz.warm], stream[sz.warm:]
	return p, nil
}

// bitReverse reverses the low log2(m) bits of j, for m a power of two.
func bitReverse(j, m int) int {
	r := 0
	for b := 1; b < m; b <<= 1 {
		r <<= 1
		if j&b != 0 {
			r |= 1
		}
	}
	return r
}

// oversample is how many candidates stratifiedCoflows draws per dense or
// normal coflow it keeps.
const oversample = 4

// stratifiedCoflows returns k distinct paper-mix coflows on n ports, none
// equal to a coflow already in seen. The class mix is that of one
// Generate call of k coflows, so it matches Tables I and II exactly under
// every seed. Dense and normal coflows, which carry nearly all of the
// scheduling work, are then re-drawn as a systematic sample: oversample×
// as many candidates of each class are generated, sorted by size, and
// every oversample-th is kept from a seeded offset, so the size mix of the
// heavy coflows, and with it the work of a run, barely moves with the seed.
// The result is shuffled.
func stratifiedCoflows(n, k int, seed int64, seen map[[32]byte]bool) ([]*matrix.Matrix, error) {
	type stratum struct {
		quota int
		cands []weighted
	}
	strata := map[[2]int]*stratum{}
	var keys [][2]int
	for round := int64(0); round < oversample; round++ {
		cs, err := workload.Generate(workload.GenConfig{N: n, NumCoflows: k, Seed: seed + round})
		if err != nil {
			return nil, err
		}
		for _, cf := range cs {
			class := workload.Classify(cf.Demand)
			key := [2]int{int(workload.ClassifyMode(cf.Demand)), int(class)}
			st := strata[key]
			if st == nil {
				st = &stratum{}
				strata[key] = st
				keys = append(keys, key)
			}
			if round == 0 {
				st.quota++
			} else if class == workload.Sparse && len(st.cands) >= st.quota {
				continue // sparse coflows are kept as drawn; later rounds only replace duplicates
			}
			if h := matrixKey(cf.Demand); !seen[h] {
				seen[h] = true
				st.cands = append(st.cands, weighted{cf.Demand, weight(cf.Demand)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Matrix, 0, k)
	for _, key := range keys {
		st := strata[key]
		quota := min(st.quota, len(st.cands)) // short only if every round drew duplicates
		sort.SliceStable(st.cands, func(a, b int) bool { return st.cands[a].w < st.cands[b].w })
		step := float64(len(st.cands)) / float64(quota)
		off := rng.Float64()
		for i := 0; i < quota; i++ {
			out = append(out, st.cands[int((float64(i)+off)*step)].d)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

// weighted is a coflow with its size proxy.
type weighted struct {
	d *matrix.Matrix
	w float64
}

// weight is the size proxy coflows and requests are stratified by: the
// non-zero flows times the bits of the largest flow, summed over coflows.
func weight(ds ...*matrix.Matrix) float64 {
	var w float64
	for _, d := range ds {
		w += float64(d.NonZeros()) * math.Log2(float64(d.MaxEntry())+1)
	}
	return w
}

func matrixKey(d *matrix.Matrix) [32]byte {
	h := sha256.New()
	var buf [8]byte
	n := d.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(d.At(i, j)))
			h.Write(buf[:])
		}
	}
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}

func rows(d *matrix.Matrix) [][]int64 {
	n := d.N()
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for j := range out[i] {
			out[i][j] = d.At(i, j)
		}
	}
	return out
}

// singleRequest encodes d as a single-coflow request with the endpoint's
// default algorithm (reco-sin).
func singleRequest(d *matrix.Matrix) (request, error) {
	body, err := json.Marshal(api.SingleRequest{Demand: rows(d), Delta: delta})
	if err != nil {
		return request{}, err
	}
	return request{path: pathSingle, alg: algo.NameRecoSin, body: body, demands: []*matrix.Matrix{d}}, nil
}

// multiRequest encodes ds as a batch request with the endpoint's default
// algorithm (reco-mul) and unit weights.
func multiRequest(ds []*matrix.Matrix) (request, error) {
	mr := api.MultiRequest{Delta: delta, C: c}
	for _, d := range ds {
		mr.Demands = append(mr.Demands, rows(d))
	}
	body, err := json.Marshal(mr)
	if err != nil {
		return request{}, err
	}
	return request{path: pathMulti, alg: algo.NameRecoMul, body: body, demands: ds}, nil
}

func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
