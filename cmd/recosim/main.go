// Command recosim runs one scheduling algorithm over a coflow workload and
// reports per-coflow completion times and switch metrics.
//
// The workload comes from a coflow-benchmark trace file (-trace) or from the
// built-in synthetic generator (-n, -coflows, -seed). Algorithms come from
// the internal/algo registry; `recosim -alg list` prints them with their
// capabilities:
//
//	eclipse          Eclipse-style greedy throughput-per-cost circuit schedule per coflow
//	helios           Helios/c-Through slotted max-weight matching (slot = 4*delta) per coflow
//	hybrid           hybrid switch: elephants (>= c*delta) via Reco-Sin on the OCS, mice via a 10x-slower packet network
//	hybrid-fluid     rate-based hybrid switch: balance-swept cutoff, joint electrical/optical fluid service (default electrical fraction 0.1)
//	kcore            O(K)-approximation K-core scheduler: SEBF coflow order, greedy demand split across -cores switching cores, Reco-Sin per core share
//	lp-ii-gb         LP-II-GB baseline: interval-indexed LP estimate order, first-fit BvN per coflow
//	lp-ii-gb-group   grouped LP-II-GB: coflows sharing an LP interval merged into one aggregate BvN schedule
//	online-batch     online controller, batch admission: all pending coflows through Reco-Mul
//	online-disjoint  online controller, disjoint-batch admission: port-disjoint coflows co-scheduled via Reco-Mul
//	online-fifo      online controller, FIFO admission: pending coflows one at a time via Reco-Sin
//	online-sebf      online controller, SEBF admission: smallest bottleneck first via Reco-Sin
//	reco-mul         full Reco-Mul pipeline: primal-dual order, packet list schedule, Algorithm 2 transformation
//	reco-sin         Reco-Sin (Algorithm 1) per coflow: regularize, stuff, max-min BvN; coflows back-to-back
//	reco-sparse      sparsity-bounded BvN: at most -k max-min terms per coflow plus full-drain residual cleanup
//	sebf-solstice    smallest-effective-bottleneck-first coflow order, Solstice schedule per coflow
//	solstice         Solstice per coflow: stuff + max-min BvN without regularization; coflows back-to-back
//	sunflow          Sunflow: one circuit per flow, longest-first, not-all-stop model; coflows back-to-back
//	tms-bvn          Traffic Matrix Scheduling: stuff + first-fit BvN per coflow; coflows back-to-back
//
// Example:
//
//	recosim -alg reco-mul -n 40 -coflows 20 -delta 100 -c 4 -percoflow
//
// With -cores K (K > 1) the fabric is a K-core OCS — K parallel switching
// cores sharing the ports, one transceiver per core per port (see
// docs/TOPOLOGY.md). Only algorithms advertising the cores capability
// accept K > 1; -cores 0 (the default) and 1 are the paper's single switch
// for every algorithm.
//
// With -k (k > 0) sparsity-bounded algorithms cap each coflow's BvN
// decomposition at k permutation terms and drain whatever demand the k terms
// leave behind with cleanup matchings — trading a little CCT for far fewer
// reconfigurations (see docs/PERF.md and results/frontier.csv). Only
// algorithms advertising the sparse capability accept -k > 0.
//
// With -elec-frac f (0 < f ≤ 1) hybrid algorithms run their electrical
// fabric at fraction f of an optical circuit lane per port (see
// docs/HYBRID.md); 0 keeps the algorithm's default. Only algorithms
// advertising the hybrid capability accept -elec-frac > 0. These knob flags
// come from algo.KnobTable and are gated by algo.Check; -faults requires
// every knob at its default.
//
// With -metrics-out FILE the attached metrics registry is pushed to FILE
// as one compact JSON snapshot line every -metrics-interval (default 1s),
// plus a final snapshot on exit — long runs can be monitored with
// `tail -f FILE` without an HTTP endpoint to scrape.
//
// Scheduling honors Ctrl-C: cancelling the run aborts in-flight LP solves
// and BvN decompositions.
//
// With -faults, each coflow's Reco-Sin schedule instead runs through the
// fault-injecting simulator (port failures, circuit-setup failures, δ
// jitter; see docs/FAULTS.md), comparing the naive schedule replay against
// the recovery controller:
//
//	recosim -faults -pfail 0.25 -setupfail 0.05 -n 40 -coflows 20
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"reco/internal/algo"
	_ "reco/internal/algo/builtin"
	"reco/internal/core"
	"reco/internal/faults"
	"reco/internal/gantt"
	"reco/internal/matrix"
	"reco/internal/obs"
	"reco/internal/ocs"
	"reco/internal/parallel"
	"reco/internal/schedule"
	"reco/internal/sim"
	"reco/internal/stats"
	"reco/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		alg        = flag.String("alg", algo.NameRecoMul, "algorithm from the registry, or 'list' to enumerate")
		trace      = flag.String("trace", "", "coflow-benchmark trace file (empty: synthetic workload)")
		n          = flag.Int("n", 40, "fabric ports for the synthetic workload")
		numCf      = flag.Int("coflows", 20, "synthetic workload size")
		seed       = flag.Int64("seed", 1, "synthetic workload seed")
		delta      = flag.Int64("delta", 100, "reconfiguration delay in ticks")
		c          = flag.Int64("c", 4, "optical transmission threshold")
		rescale    = flag.Int("rescale", 0, "fold the workload onto this many ports (0: keep)")
		perCoflow  = flag.Bool("percoflow", false, "print each coflow's CCT")
		showGantt  = flag.Bool("gantt", false, "render the schedule as an ASCII Gantt chart")
		ganttWidth = flag.Int("ganttwidth", 100, "gantt chart width in columns")

		tracefile = flag.String("tracefile", "", "write a Chrome trace-event JSON of the run (load in chrome://tracing or ui.perfetto.dev)")

		metricsOut      = flag.String("metrics-out", "", "push metrics registry snapshots to this file, one JSON line per flush")
		metricsInterval = flag.Duration("metrics-interval", time.Second, "with -metrics-out: flush period (<= 0: final snapshot only)")

		withFaults = flag.Bool("faults", false, "run each coflow's Reco-Sin schedule under injected faults (replay vs recover)")
		pfail      = flag.Float64("pfail", 0.10, "with -faults: per-port failure probability inside the nominal run")
		setupFail  = flag.Float64("setupfail", 0, "with -faults: per-establishment circuit-setup failure probability")
		jitter     = flag.Int64("jitter", 0, "with -faults: δ jitter bound in ticks")
		repair     = flag.Int64("repair", 0, "with -faults: port repair delay in ticks (0: half the clean CCT)")
		faultSeed  = flag.Int64("faultseed", 1, "with -faults: fault-schedule seed")
		traceCap   = flag.Int("trace-cap", 0, "with -tracefile: keep only the most recent N trace events (ring buffer; 0 = unbounded)")

		knobs algo.Knobs
	)
	algo.BindKnobFlags(flag.CommandLine, &knobs)
	flag.Parse()

	if *alg == "list" {
		fmt.Print(listAlgorithms())
		return 0
	}
	if err := checkKnobs(knobs, *withFaults); err != nil {
		fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
		return 1
	}

	// Ctrl-C / SIGTERM cancels the scheduling context: in-flight LP solves
	// and BvN decompositions poll it and abort promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -tracefile, a full sink is attached for the whole run: pipeline
	// stages land as wall-clock spans, simulator activity as tick events,
	// and the analytic schedule's flow intervals are added below; the
	// combined trace is written on exit.
	var tracer *obs.Tracer
	if *tracefile != "" {
		tracer = obs.NewTracerCap(*traceCap)
		obs.Attach(&obs.Sink{Metrics: obs.NewRegistry(), Trace: tracer})
		defer obs.Detach()
	}

	// With -metrics-out, the attached registry is pushed to a file as one
	// JSON snapshot line per -metrics-interval. Without -tracefile there is
	// no sink yet, so a metrics-only sink is attached here. Defers unwind in
	// LIFO order: stop (final flush) runs before the file closes, and both
	// before the sink detaches.
	if *metricsOut != "" {
		if obs.Current() == nil {
			obs.Attach(&obs.Sink{Metrics: obs.NewRegistry()})
			defer obs.Detach()
		}
		mf, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recosim: metrics-out: %v\n", err)
			return 1
		}
		defer mf.Close()
		stop := obs.FlushEvery(mf, *metricsInterval)
		defer stop()
	}

	coflows, err := loadWorkload(*trace, *n, *numCf, *seed, *c**delta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
		return 1
	}
	if *rescale > 0 {
		if coflows, err = workload.Rescale(coflows, *rescale); err != nil {
			fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
			return 1
		}
	}
	ds := make([]*matrix.Matrix, len(coflows))
	w := make([]float64, len(coflows))
	for i, cf := range coflows {
		ds[i] = cf.Demand
		w[i] = cf.Weight
	}

	if *withFaults {
		if err := runFaulted(ds, faultOpts{
			delta: *delta, pfail: *pfail, setupFail: *setupFail,
			jitter: *jitter, repair: *repair, seed: *faultSeed,
			perCoflow: *perCoflow,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
			return 1
		}
		if err := writeTrace(*tracefile, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
			return 1
		}
		return 0
	}

	sched, err := algo.Get(*alg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
		return 1
	}
	res, err := sched.Schedule(ctx, algo.Request{Demands: ds, Weights: w, Delta: *delta, C: *c, Knobs: knobs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
		return 1
	}
	ccts, reconfigs, flows := res.CCTs, res.Reconfigs, res.Flows
	if tracer != nil {
		for _, f := range flows {
			tracer.TickSpan(fmt.Sprintf("in %02d", f.In), fmt.Sprintf("cf%d→%d", f.Coflow, f.Out),
				f.Start, f.End, nil)
		}
		if err := writeTrace(*tracefile, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
			return 1
		}
	}

	vals := stats.Int64s(ccts)
	mean, err := stats.Mean(vals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recosim: %v\n", err)
		return 1
	}
	p95, _ := stats.Percentile(vals, 95)
	fmt.Printf("algorithm      %s\n", *alg)
	fmt.Printf("coflows        %d on %d ports\n", len(ds), ds[0].N())
	fmt.Printf("delta, c       %d ticks, %d\n", *delta, *c)
	for i := range algo.KnobTable {
		if kn := &algo.KnobTable[i]; kn.Active(knobs) {
			fmt.Printf("%-15s%v\n", kn.Flag(), kn.Value(knobs))
		}
	}
	fmt.Printf("reconfigs      %d\n", reconfigs)
	fmt.Printf("avg CCT        %.0f ticks\n", mean)
	fmt.Printf("95p CCT        %.0f ticks\n", p95)
	fmt.Printf("weighted CCT   %.0f\n", schedule.TotalWeighted(ccts, w))
	if *perCoflow {
		idx := make([]int, len(ccts))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return ccts[idx[a]] < ccts[idx[b]] })
		for _, k := range idx {
			fmt.Printf("  coflow %3d  %-7s %9d ticks\n", k, workload.Classify(ds[k]), ccts[k])
		}
	}
	if *showGantt {
		if !sched.Caps().FlowLevel {
			fmt.Fprintf(os.Stderr, "recosim: gantt: algorithm %s reports no flow-level schedule\n", *alg)
			return 1
		}
		chart, err := gantt.RenderFlows(flows, ds[0].N(), *ganttWidth)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recosim: gantt: %v\n", err)
			return 1
		}
		fmt.Print(chart)
		fmt.Print(gantt.Legend(flows))
	}
	return 0
}

// listAlgorithms renders the registry for `recosim -alg list`: one line per
// algorithm with its name, capability tags and description, in the
// registry's deterministic order.
func listAlgorithms() string {
	var b strings.Builder
	for _, s := range algo.All() {
		fmt.Fprintf(&b, "%-16s %-28s %s\n", s.Name(), capTags(s.Caps()), s.Describe())
	}
	return b.String()
}

// checkKnobs rejects out-of-range knob flags before any scheduling work.
// The fault simulator replays full Reco-Sin schedules on the paper's
// single all-optical switch, so with -faults no knob may be active.
func checkKnobs(k algo.Knobs, faulted bool) error {
	if err := algo.ValidateKnobs(k); err != nil {
		return err
	}
	for i := range algo.KnobTable {
		if kn := &algo.KnobTable[i]; faulted && kn.Active(k) {
			return fmt.Errorf("-faults replays single-switch, all-optical Reco-Sin schedules; -%s %v is not supported", kn.Flag(), kn.Value(k))
		}
	}
	return nil
}

// capTags renders capability flags compactly, e.g.
// "[single multi flows]" or "[single not-all-stop]".
func capTags(c algo.Capabilities) string {
	var tags []string
	if c.SingleCoflow {
		tags = append(tags, "single")
	}
	if c.MultiCoflow {
		tags = append(tags, "multi")
	}
	if c.NotAllStop {
		tags = append(tags, "not-all-stop")
	}
	if c.FlowLevel {
		tags = append(tags, "flows")
	}
	for i := range algo.KnobTable {
		if kn := &algo.KnobTable[i]; kn.Has(c) {
			tags = append(tags, kn.Capability)
		}
	}
	return "[" + strings.Join(tags, " ") + "]"
}

func loadWorkload(trace string, n, numCf int, seed, minDemand int64) ([]workload.Coflow, error) {
	if trace == "" {
		return workload.Generate(workload.GenConfig{
			N: n, NumCoflows: numCf, Seed: seed, MinDemand: minDemand, MeanDemand: minDemand,
		})
	}
	f, err := os.Open(trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ParseTrace(f, workload.DefaultTicksPerMB)
}

type faultOpts struct {
	delta     int64
	pfail     float64
	setupFail float64
	jitter    int64
	repair    int64
	seed      int64
	perCoflow bool
}

// runFaulted plans each coflow with Reco-Sin and executes the plan through
// the fault-injecting simulator, comparing the naive schedule replay against
// the recovery controller. Each coflow gets its own fault schedule derived
// from (seed, coflow index), so runs are reproducible coflow by coflow.
func runFaulted(ds []*matrix.Matrix, o faultOpts) error {
	fmt.Printf("fault model    pfail=%.2f setupfail=%.2f jitter=%d seed=%d\n",
		o.pfail, o.setupFail, o.jitter, o.seed)
	fmt.Printf("coflows        %d on %d ports, delta %d ticks\n", len(ds), ds[0].N(), o.delta)
	var cleanSum, replaySum, recoverSum float64
	var faultCount, setupCount int
	for k, d := range ds {
		cs, err := core.RecoSin(d, o.delta)
		if err != nil {
			return fmt.Errorf("coflow %d: %w", k, err)
		}
		clean, err := ocs.ExecAllStop(d, cs, o.delta)
		if err != nil {
			return fmt.Errorf("coflow %d: %w", k, err)
		}
		repairAfter := o.repair
		if repairAfter <= 0 {
			repairAfter = clean.CCT / 2
			if repairAfter < o.delta {
				repairAfter = o.delta
			}
		}
		fs, err := faults.Generate(faults.GenConfig{
			N:             d.N(),
			Seed:          parallel.Seed(o.seed, int64(k)),
			Horizon:       clean.CCT,
			PortFailRate:  o.pfail,
			RepairAfter:   repairAfter,
			SetupFailProb: o.setupFail,
			JitterBound:   o.jitter,
		})
		if err != nil {
			return fmt.Errorf("coflow %d: %w", k, err)
		}
		replayCtl := sim.NewReplayLoop(cs)
		recoverCtl := sim.NewPredictiveRecover(d, cs, o.delta, fs)
		if k == 0 {
			fmt.Printf("controllers    %s vs %s\n", replayCtl.Name(), recoverCtl.Name())
		}
		replay, err := sim.RunFaults(d, replayCtl, o.delta, fs)
		if err != nil {
			return fmt.Errorf("coflow %d replay: %w", k, err)
		}
		rec, err := sim.RunFaults(d, recoverCtl, o.delta, fs)
		if err != nil {
			return fmt.Errorf("coflow %d recover: %w", k, err)
		}
		cleanSum += float64(clean.CCT)
		replaySum += float64(replay.CCT)
		recoverSum += float64(rec.CCT)
		faultCount += len(rec.Faults)
		setupCount += rec.SetupFailures
		if o.perCoflow {
			fmt.Printf("  coflow %3d  clean %9d  replay %9d  recover %9d  faults %d\n",
				k, clean.CCT, replay.CCT, rec.CCT, len(rec.Faults))
		}
	}
	fmt.Printf("faults seen    %d (%d setup failures under recover)\n", faultCount, setupCount)
	fmt.Printf("sum clean CCT  %.0f ticks\n", cleanSum)
	fmt.Printf("replay         %.0f ticks (x%.3f of clean)\n", replaySum, replaySum/cleanSum)
	fmt.Printf("recover        %.0f ticks (x%.3f of clean)\n", recoverSum, recoverSum/cleanSum)
	return nil
}

// writeTrace renders the tracer to path; a nil tracer is a no-op so the
// call sits on every success path unconditionally.
func writeTrace(path string, tr *obs.Tracer) error {
	if tr == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("tracefile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Printf("trace          %s (%d events, %d older events dropped by -trace-cap)\n", path, tr.Len(), dropped)
	} else {
		fmt.Printf("trace          %s (%d events)\n", path, tr.Len())
	}
	return nil
}
