// Package algo defines the repository's canonical scheduling-algorithm
// abstraction: one Scheduler interface, one request shape and one result
// shape shared by every consumer layer — the recosim CLI, the HTTP API,
// the experiment tables, the online controller and the fault simulator.
//
// Implementations live in the algo/builtin sub-package and register
// themselves in the process-global registry; consumers blank-import
// reco/internal/algo/builtin and resolve algorithms by name. Keeping this
// package free of scheduler imports (it depends only on the matrix, ocs and
// schedule data types) is what lets every layer — including packages the
// schedulers themselves depend on, such as internal/online — share the name
// constants without import cycles.
package algo

import (
	"context"
	"errors"
	"fmt"

	"reco/internal/matrix"
	"reco/internal/ocs"
	"reco/internal/schedule"
)

// ErrBadRequest reports a malformed Request; API layers map it to a 400.
var ErrBadRequest = errors.New("algo: bad request")

// Canonical algorithm names. These are the only spellings of the algorithm
// identifiers in the repository: CLI flags, API fields, experiment rows and
// online-policy labels all derive from them.
const (
	// NameRecoSin is Reco-Sin (Algorithm 1) applied per coflow, coflows
	// served back-to-back in input order.
	NameRecoSin = "reco-sin"
	// NameRecoMul is the full Reco-Mul pipeline (Algorithm 2 over the
	// primal–dual packet-switch list schedule).
	NameRecoMul = "reco-mul"
	// NameSolstice is Solstice per coflow, back-to-back.
	NameSolstice = "solstice"
	// NameSEBFSolstice is SEBF coflow order + Solstice per coflow.
	NameSEBFSolstice = "sebf-solstice"
	// NameLPIIGB is the sequential LP-II-GB baseline: LP-estimate order,
	// first-fit BvN per coflow.
	NameLPIIGB = "lp-ii-gb"
	// NameLPIIGBGroup is the grouped LP-II-GB construction (aggregated
	// per-interval schedules).
	NameLPIIGBGroup = "lp-ii-gb-group"
	// NameSunflow is Sunflow's one-circuit-per-flow not-all-stop scheduler,
	// coflows served back-to-back.
	NameSunflow = "sunflow"
	// NameTMSBvN is Traffic Matrix Scheduling: first-fit BvN per coflow.
	NameTMSBvN = "tms-bvn"
	// NameHelios is the Helios/c-Through slotted max-weight-matching
	// scheduler (slot = 4·δ by the repository's convention).
	NameHelios = "helios"
	// NameEclipse is the Eclipse-style greedy throughput-per-cost scheduler.
	NameEclipse = "eclipse"
	// NameHybrid is the hybrid circuit/packet split: elephants via Reco-Sin
	// on the OCS, mice via a slowed-down packet switch.
	NameHybrid = "hybrid"
	// NameOnlineFIFO .. NameOnlineDisjoint run the batch through the online
	// controller with every coflow arriving at time zero, under the
	// corresponding admission policy.
	NameOnlineFIFO     = "online-fifo"
	NameOnlineSEBF     = "online-sebf"
	NameOnlineBatch    = "online-batch"
	NameOnlineDisjoint = "online-disjoint"
	// NameKCore is the K-core O(K)-approximation scheduler: SEBF coflow
	// order, load-balanced demand splitting across Request.Cores switching
	// cores, Reco-Sin per core share.
	NameKCore = "kcore"
	// NameRecoSparse is the sparsity-bounded Reco-Sin variant: at most
	// Request.K max–min BvN terms plus full-drain cleanup establishments
	// covering the residual.
	NameRecoSparse = "reco-sparse"
	// NameHybridFluid is the rate-based hybrid circuit/packet scheduler: a
	// joint fluid assignment of every (src, dst) demand to an optical
	// circuit share plus a time-varying electrical rate, the electrical
	// fabric running at the Request.ElecFrac fraction of a circuit lane.
	NameHybridFluid = "hybrid-fluid"
)

// Capabilities describes what a Scheduler supports, for dispatchers that
// must pick (or reject) algorithms by shape and for the /v1/algorithms
// listing, whose wire names are the JSON tags.
type Capabilities struct {
	// SingleCoflow: the algorithm meaningfully schedules one coflow.
	SingleCoflow bool `json:"singleCoflow"`
	// MultiCoflow: the algorithm is natively coflow-aware across a batch
	// (ordering or joint optimization), rather than serving a batch as
	// independent back-to-back coflows.
	MultiCoflow bool `json:"multiCoflow"`
	// NotAllStop: reconfigurations stall only the ports involved; false
	// means the all-stop model.
	NotAllStop bool `json:"notAllStop"`
	// FlowLevel: Result.Flows carries the complete flow-level schedule.
	// Aggregate-only algorithms (hybrid, the online policies) report CCTs
	// and reconfiguration counts without per-flow intervals.
	FlowLevel bool `json:"flowLevel"`
	// Cores, Sparse and Hybrid: the algorithm honors the Request knob of
	// the same KnobTable entry (Cores, K and ElecFrac respectively). Check
	// rejects an active knob for an algorithm without its capability, which
	// would silently ignore it.
	Cores  bool `json:"cores"`
	Sparse bool `json:"sparse"`
	Hybrid bool `json:"hybrid"`
}

// Request is the unified scheduling input: a coflow set with optional
// weights, the reconfiguration delay δ and the optical transmission
// threshold c. Single-coflow scheduling is a one-element Demands slice.
type Request struct {
	// Demands holds one square demand matrix per coflow; all matrices share
	// one dimension.
	Demands []*matrix.Matrix
	// Weights are per-coflow weights; nil means unit weights.
	Weights []float64
	// Delta is the reconfiguration delay in ticks.
	Delta int64
	// C is the optical transmission threshold (Reco-Mul's grid parameter);
	// algorithms that do not use it ignore it.
	C int64
	// Knobs are the optional per-algorithm parameters (cores, k,
	// elec_frac); see KnobTable. Only algorithms with the matching
	// capability honor an active value.
	Knobs
}

// Result is the unified scheduling output.
type Result struct {
	// CCTs[k] is coflow k's completion time (all arrivals at time zero, so
	// waiting for earlier coflows counts toward the CCT).
	CCTs []int64
	// Reconfigs is the total number of circuit reconfigurations (circuit
	// establishments for not-all-stop algorithms).
	Reconfigs int
	// Flows is the flow-level schedule with per-coflow attribution; nil when
	// the algorithm's Capabilities.FlowLevel is false.
	Flows schedule.FlowSchedule
	// Schedules[k] is coflow k's circuit schedule for algorithms that build
	// one explicit circuit schedule per coflow; nil otherwise (pipeline and
	// grouped algorithms emit flows without per-coflow circuit lists).
	Schedules []ocs.CircuitSchedule
}

// Scheduler is one scheduling algorithm.
type Scheduler interface {
	// Name returns the canonical registry name.
	Name() string
	// Describe returns a one-line human-readable description.
	Describe() string
	// Caps reports the algorithm's capabilities.
	Caps() Capabilities
	// Schedule runs the algorithm. Implementations check ctx periodically in
	// their long-running loops (LP solves, BvN extraction, per-coflow scans)
	// and return ctx.Err() promptly once it is cancelled. The registry
	// runs Check before every call, so implementations registered with
	// Register may assume a well-formed request.
	Schedule(ctx context.Context, req Request) (*Result, error)
}

// ValidateRequest checks the shape shared by every algorithm: at least one
// demand matrix, all matrices present and of one dimension, δ non-negative,
// every knob within its range. Check runs it after the capability gate.
func ValidateRequest(req Request) error {
	if len(req.Demands) == 0 {
		return fmt.Errorf("%w: no demand matrices", ErrBadRequest)
	}
	n := 0
	for k, d := range req.Demands {
		if d == nil {
			return fmt.Errorf("%w: demand %d is nil", ErrBadRequest, k)
		}
		if k == 0 {
			n = d.N()
		} else if d.N() != n {
			return fmt.Errorf("%w: demand %d has dimension %d, want %d", ErrBadRequest, k, d.N(), n)
		}
	}
	if req.Delta < 0 {
		return fmt.Errorf("%w: negative delta %d", ErrBadRequest, req.Delta)
	}
	return ValidateKnobs(req.Knobs)
}
