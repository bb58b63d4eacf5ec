package plancache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"reco/internal/algo"
	"reco/internal/matrix"
	"reco/internal/obs"
)

func mustMatrix(t testing.TB, rows [][]int64) *matrix.Matrix {
	t.Helper()
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func req1(t testing.TB, rows [][]int64, delta int64) algo.Request {
	return algo.Request{Demands: []*matrix.Matrix{mustMatrix(t, rows)}, Delta: delta, C: 4}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := req1(t, [][]int64{{1, 2}, {3, 4}}, 100)
	same := req1(t, [][]int64{{1, 2}, {3, 4}}, 100)
	if Fingerprint("reco-sin", base) != Fingerprint("reco-sin", same) {
		t.Error("identical requests got different fingerprints")
	}
	variants := []struct {
		name string
		alg  string
		req  algo.Request
	}{
		{"entry changed", "reco-sin", req1(t, [][]int64{{1, 2}, {3, 5}}, 100)},
		{"delta changed", "reco-sin", req1(t, [][]int64{{1, 2}, {3, 4}}, 101)},
		{"algorithm changed", "solstice", base},
		{"weights added", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 4, Weights: []float64{2}}},
		{"c changed", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 5}},
		{"cores changed", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 4, Knobs: algo.Knobs{Cores: 4}}},
		{"k changed", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 4, Knobs: algo.Knobs{K: 3}}},
		{"elec frac changed", "reco-sin", algo.Request{Demands: base.Demands, Delta: 100, C: 4, Knobs: algo.Knobs{ElecFrac: 0.25}}},
	}
	fp := Fingerprint("reco-sin", base)
	for _, v := range variants {
		if Fingerprint(v.alg, v.req) == fp {
			t.Errorf("%s: fingerprint collision", v.name)
		}
	}
	// Two matrices [A, B] must not collide with one matrix that concatenates
	// their rows, and [A, B] must differ from [B, A].
	a, b := [][]int64{{1, 0}, {0, 1}}, [][]int64{{2, 0}, {0, 2}}
	ab := algo.Request{Demands: []*matrix.Matrix{mustMatrix(t, a), mustMatrix(t, b)}, Delta: 10}
	ba := algo.Request{Demands: []*matrix.Matrix{mustMatrix(t, b), mustMatrix(t, a)}, Delta: 10}
	if Fingerprint("x", ab) == Fingerprint("x", ba) {
		t.Error("matrix order ignored by fingerprint")
	}
}

func TestQuantizedFingerprintMergesCloseMatrices(t *testing.T) {
	// With ε = 0.05 and max entry 1000, step = 50: entries within one step
	// collapse, far entries do not.
	base := req1(t, [][]int64{{1000, 500}, {480, 1000}}, 100)
	close := req1(t, [][]int64{{1010, 495}, {470, 1005}}, 100)
	far := req1(t, [][]int64{{1000, 800}, {480, 1000}}, 100)
	kb := QuantizedFingerprint("reco-sin", base, 0.05)
	if kc := QuantizedFingerprint("reco-sin", close, 0.05); kc != kb {
		t.Error("ε-close matrices got different quantized keys")
	}
	if kf := QuantizedFingerprint("reco-sin", far, 0.05); kf == kb {
		t.Error("ε-far matrices collided")
	}
	// δ is never quantized.
	dd := req1(t, [][]int64{{1000, 500}, {480, 1000}}, 101)
	if QuantizedFingerprint("reco-sin", dd, 0.05) == kb {
		t.Error("delta change ignored by quantized key")
	}
	// ε = 0 degrades to the exact fingerprint.
	if QuantizedFingerprint("reco-sin", base, 0) != Fingerprint("reco-sin", base) {
		t.Error("eps=0 does not match exact fingerprint")
	}
}

func resN(n int) *algo.Result {
	return &algo.Result{CCTs: make([]int64, n), Reconfigs: n}
}

func TestCacheGetPutLRU(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	c.Put("a", resN(1))
	c.Put("b", resN(2))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c evicts b.
	c.Put("c", resN(3))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be present")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestCacheByteBoundEvicts(t *testing.T) {
	big := &algo.Result{CCTs: make([]int64, 1000)} // ~8KB
	c := New(Config{MaxEntries: 100, MaxBytes: 20 << 10, Shards: 1})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), big)
	}
	if c.Bytes() > 20<<10 {
		t.Errorf("Bytes = %d, want <= %d", c.Bytes(), 20<<10)
	}
	if c.Len() >= 10 {
		t.Errorf("Len = %d, want evictions under the byte bound", c.Len())
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("x"); ok {
		t.Error("nil cache hit")
	}
	c.Put("x", resN(1)) // must not panic
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Error("nil cache reports non-zero size")
	}
	if c.Key("alg", algo.Request{}) == "" {
		t.Error("nil cache Key empty")
	}
}

// TestCacheHammer runs parallel readers and writers over a small keyspace
// with a tight bound, so hits, misses, refreshes and evictions all race,
// then checks the metric accounting against the registry.
func TestCacheHammer(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()

	c := New(Config{MaxEntries: 32, MaxBytes: 1 << 20, Shards: 4})
	const (
		workers = 8
		ops     = 2000
		keys    = 100
	)
	var wg sync.WaitGroup
	var hits, misses [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				if _, ok := c.Get(key); ok {
					hits[w]++
				} else {
					misses[w]++
					c.Put(key, resN(rng.Intn(16)+1))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Len(); got > 32 {
		t.Errorf("Len = %d, exceeds MaxEntries 32", got)
	}
	var wantHits, wantMisses int64
	for w := 0; w < workers; w++ {
		wantHits += hits[w]
		wantMisses += misses[w]
	}
	if got := reg.Counter("plancache_hits_total").Value(); got != wantHits {
		t.Errorf("hits_total = %d, want %d", got, wantHits)
	}
	if got := reg.Counter("plancache_misses_total").Value(); got != wantMisses {
		t.Errorf("misses_total = %d, want %d", got, wantMisses)
	}
	if wantHits+wantMisses != workers*ops {
		t.Errorf("accounting: hits+misses = %d, want %d", wantHits+wantMisses, workers*ops)
	}
	// Under pressure (100 keys, 32 slots) evictions must have happened, and
	// the entries gauge must agree with the live count.
	if ev := reg.Counter("plancache_evictions_total").Value(); ev == 0 {
		t.Error("no evictions under pressure")
	}
	if g := reg.Gauge("plancache_entries").Value(); int(g) != c.Len() {
		t.Errorf("entries gauge = %v, want %d", g, c.Len())
	}
	if g := reg.Gauge("plancache_bytes").Value(); int64(g) != c.Bytes() {
		t.Errorf("bytes gauge = %v, want %d", g, c.Bytes())
	}
	if n := reg.Histogram("plancache_lookup_seconds", nil).Count(); n != int64(workers*ops) {
		t.Errorf("lookup histogram count = %d, want %d", n, workers*ops)
	}
}
