package algo

import (
	"flag"
	"fmt"
	"math"
	"strings"
)

// Knobs are the optional request parameters that only some algorithms
// honor. Every field has exactly one KnobTable entry, and that entry is the
// only place that knows the knob's wire name, flag, capability, range and
// cache-key encoding: the HTTP API embeds Knobs in its request structs,
// recosim and recoctl bind their flags with BindKnobFlags, the plan cache
// hashes the table's Key encodings, and Check is the one gate. Adding a knob
// is one field here, one KnobTable entry and the algorithm change.
type Knobs struct {
	// Cores is the number of parallel switching cores of the fabric
	// (docs/TOPOLOGY.md); 0 and 1 both mean the paper's single switch.
	Cores int `json:"cores,omitempty"`
	// K bounds the number of BvN permutation terms per coflow for
	// sparsity-bounded schedulers (reco-sparse); 0 means the algorithm's
	// default.
	K int `json:"k,omitempty"`
	// ElecFrac is the electrical fabric's per-port bandwidth as a fraction
	// of one optical circuit lane (docs/HYBRID.md), in [0, 1]; 0 means the
	// algorithm's default.
	ElecFrac float64 `json:"elec_frac,omitempty"`
}

// Knob is one KnobTable entry: everything the repository knows about one
// Knobs field outside the algorithms that honor it.
type Knob struct {
	// Name is the JSON field name; Flag derives the CLI flag from it.
	Name string
	// Usage is the CLI flag's help text.
	Usage string
	// Capability names the Capabilities flag Has reads.
	Capability string
	// Has reports whether an algorithm with caps honors an active value.
	Has func(caps Capabilities) bool
	// Active reports whether k asks for something beyond the paper's single
	// all-optical switch; only active values need the capability.
	Active func(k Knobs) bool
	// Value returns the knob's value in k, for messages and reports.
	Value func(k Knobs) any
	// Key is the knob's 8-byte plan-cache fingerprint encoding.
	Key func(k Knobs) uint64

	lacks    string             // what an algorithm without the capability does instead
	inRange  func(k Knobs) bool // the range check
	rangeErr string             // its error, formatting Value
	bind     func(fs *flag.FlagSet, k *Knobs, name, usage string)
}

// Flag returns the knob's CLI flag name: Name with dashes for underscores.
func (kn *Knob) Flag() string { return strings.ReplaceAll(kn.Name, "_", "-") }

// KnobTable lists every request knob in wire order. Check, ValidateRequest,
// the CLI flags and the plan-cache fingerprint all iterate it.
var KnobTable = []Knob{
	{
		Name:       "cores",
		Usage:      "K-core fabric width (0 or 1 = single switch; K > 1 needs a cores-capable algorithm)",
		Capability: "cores",
		Has:        func(c Capabilities) bool { return c.Cores },
		Active:     func(k Knobs) bool { return k.Cores > 1 },
		Value:      func(k Knobs) any { return k.Cores },
		Key:        func(k Knobs) uint64 { return uint64(int64(k.Cores)) },
		lacks:      "schedules a single switch",
		inRange:    func(k Knobs) bool { return k.Cores >= 0 },
		rangeErr:   "negative core count %v",
		bind:       func(fs *flag.FlagSet, k *Knobs, name, usage string) { fs.IntVar(&k.Cores, name, 0, usage) },
	},
	{
		Name:       "k",
		Usage:      "BvN term bound per coflow (0 = algorithm default; > 0 needs a sparse-capable algorithm)",
		Capability: "sparse",
		Has:        func(c Capabilities) bool { return c.Sparse },
		Active:     func(k Knobs) bool { return k.K > 0 },
		Value:      func(k Knobs) any { return k.K },
		Key:        func(k Knobs) uint64 { return uint64(int64(k.K)) },
		lacks:      "ignores the term bound",
		inRange:    func(k Knobs) bool { return k.K >= 0 },
		rangeErr:   "negative term bound %v",
		bind:       func(fs *flag.FlagSet, k *Knobs, name, usage string) { fs.IntVar(&k.K, name, 0, usage) },
	},
	{
		Name:       "elec_frac",
		Usage:      "electrical fabric rate as a fraction of one circuit lane (0 = algorithm default; > 0 needs a hybrid-capable algorithm)",
		Capability: "hybrid",
		Has:        func(c Capabilities) bool { return c.Hybrid },
		Active:     func(k Knobs) bool { return k.ElecFrac > 0 },
		Value:      func(k Knobs) any { return k.ElecFrac },
		Key:        func(k Knobs) uint64 { return math.Float64bits(k.ElecFrac) },
		lacks:      "ignores the electrical fraction",
		inRange:    func(k Knobs) bool { return k.ElecFrac >= 0 && k.ElecFrac <= 1 }, // false for NaN
		rangeErr:   "electrical fraction %v outside [0, 1]",
		bind:       func(fs *flag.FlagSet, k *Knobs, name, usage string) { fs.Float64Var(&k.ElecFrac, name, 0, usage) },
	},
}

// BindKnobFlags defines one flag per KnobTable entry on fs, each writing
// into its field of k; the zero value of every knob is its default.
func BindKnobFlags(fs *flag.FlagSet, k *Knobs) {
	for i := range KnobTable {
		kn := &KnobTable[i]
		kn.bind(fs, k, kn.Flag(), kn.Usage)
	}
}

// ValidateKnobs runs every knob's range check.
func ValidateKnobs(k Knobs) error {
	for i := range KnobTable {
		if kn := &KnobTable[i]; !kn.inRange(k) {
			return fmt.Errorf("%w: "+kn.rangeErr, ErrBadRequest, kn.Value(k))
		}
	}
	return nil
}

// Check is the one request gate every scheduling path goes through: first
// it rejects an active knob the scheduler lacks the capability for (which
// it would otherwise silently ignore), then it runs ValidateRequest. Every
// registered scheduler's Schedule calls it (see Register); dispatchers that
// must fail before queueing or caching work call it up front.
func Check(s Scheduler, req Request) error {
	caps := s.Caps()
	for i := range KnobTable {
		kn := &KnobTable[i]
		if kn.Active(req.Knobs) && !kn.Has(caps) {
			return fmt.Errorf("%w: %s %v: algorithm %s %s (no %s capability)",
				ErrBadRequest, kn.Name, kn.Value(req.Knobs), s.Name(), kn.lacks, kn.Capability)
		}
	}
	return ValidateRequest(req)
}
