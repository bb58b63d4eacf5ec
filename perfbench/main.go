// Command perfbench is the end-to-end and per-layer benchmark of the recod
// scheduling service. It starts an in-process server wired as cmd/recod
// wires it, drives it over a loopback TCP listener with a seeded,
// fixed-length request sequence, checks every response, and prints one
// metric per line followed by a JSON summary line.
//
//	go run . --workload multi-warm --seed 1 --seconds 25 --trace 0
//
// --trace 1 adds a second, traced run of the same sequence plus a layer
// pass, and reports per-layer metrics instead of end-to-end ones; the
// Chrome trace is written under --trace-dir. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"reco/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times the set-up runs; setup_s is their median
// and the last one serves the timed phase.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	tiny     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: single-cold, multi-warm, mixed-churn or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the request sequence is generated from")
	fs.Float64Var(&o.seconds, "seconds", 25, "nominal timed-phase length; fixes the request count")
	fs.IntVar(&trace, "trace", 0, "1: add a traced run and report per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory for Chrome trace files")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny sizes, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}

	defs := workloads
	if o.workload != "all" {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		defs = []*workloadDef{w}
	}
	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range defs {
		res, err := runWorkload(w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		sum.Attempted += res.attempted
		sum.Failed += res.failed
		if res.failed > 0 {
			sum.Correct = false
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d requests failed their checks; first: %v\n",
				w.name, res.failed, res.attempted, res.firstErr)
		}
		for _, m := range res.metrics {
			name := m.name
			if len(defs) > 1 {
				name = w.name + "/" + name
			}
			sum.Metrics[name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's reported metrics and check tallies.
type result struct {
	metrics           []metric
	attempted, failed int
	firstErr          error
}

// sizeFor turns --seconds into a fixed request count: the workload's
// nominal rate times the seconds, but never fewer than the 1000 requests a
// p99 needs (see percentile).
func sizeFor(w *workloadDef, o options) size {
	if o.tiny {
		return w.tiny
	}
	sz := w.full
	sz.timed = max(1000, int(math.Round(w.rps*o.seconds)))
	return sz
}

func runWorkload(w *workloadDef, o options, stdout io.Writer) (*result, error) {
	p, err := w.build(o.seed, sizeFor(w, o))
	if err != nil {
		return nil, fmt.Errorf("build requests: %w", err)
	}
	plain, err := timedRun(w, p, setupRepeats, false)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: plain.check.attempted, failed: plain.check.attempted - plain.check.ok, firstErr: plain.check.firstErr}
	if !o.trace {
		res.metrics = plain.endToEnd()
		printMetrics(stdout, w.name, "", res.metrics)
		return res, nil
	}
	traced, err := timedRun(w, p, 1, true)
	if err != nil {
		return nil, err
	}
	res.attempted += traced.check.attempted
	res.failed += traced.check.attempted - traced.check.ok
	if res.firstErr == nil {
		res.firstErr = traced.check.firstErr
	}
	printMetrics(stdout, w.name, "untraced ", plain.endToEnd())
	printMetrics(stdout, w.name, "traced ", traced.endToEnd())
	path, err := writeTrace(o.traceDir, w.name, o.seed, traced.tracer)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s trace file %s\n", w.name, path)
	res.metrics, err = perLayer(p, plain, traced, path)
	if err != nil {
		return nil, err
	}
	printMetrics(stdout, w.name, "", res.metrics)
	return res, nil
}

func printMetrics(w io.Writer, workload, prefix string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s%-28s %14.6g %s\n", workload, prefix, m.name, m.value, m.unit)
	}
}

// usage is a process-wide resource reading taken at a phase boundary.
type usage struct {
	cpu       time.Duration // user + system CPU of the process
	mallocs   uint64
	allocated uint64 // cumulative heap bytes allocated
	gcCPU     float64
	gcCycles  uint64
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail; on error cpu stays 0.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.allocated = ms.Mallocs, ms.TotalAlloc
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		u.gcCycles = samples[1].Value.Uint64()
	}
	return u
}

// runStats is everything measured around one timed phase.
type runStats struct {
	setup               []float64 // seconds, one per set-up repetition
	ps                  *pass
	before, after       usage
	srvBefore, srvAfter counters // /metrics.json around the timed phase
	heapLive            uint64
	check               outcome
	tracer              *obs.Tracer
	layer               layerStats
}

// timedRun sets the server up setups times (keeping the last), times the
// plan's sequence against it and checks the responses. With traced, an
// obs tracer is attached for the timed phase and a layer pass follows it.
func timedRun(w *workloadDef, p *plan, setups int, traced bool) (*runStats, error) {
	st := &runStats{}
	var srv *server
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.close()
			srv = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startServer(w.opts, w.clients)
		if err != nil {
			return nil, err
		}
		srv = s
		if err := srv.warm(p, p.warm, w.clients); err != nil {
			srv.close()
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
	}
	defer srv.close()

	var err error
	if st.srvBefore, err = srv.snapshot(); err != nil {
		return nil, err
	}
	runtime.GC()
	if traced {
		st.tracer = obs.NewTracerCap(traceCap(p))
		obs.Attach(&obs.Sink{Metrics: srv.reg, Trace: st.tracer})
	}
	st.before = readUsage()
	st.ps = srv.drive(p, p.timed, w.clients, true, st.tracer)
	st.after = readUsage()
	if st.srvAfter, err = srv.snapshot(); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.heapLive = ms.HeapAlloc
	if traced {
		if st.layer, err = layerPass(srv, p); err != nil {
			return nil, err
		}
		obs.Attach(&obs.Sink{Metrics: srv.reg})
	}
	st.check = verify(p, st.ps)
	return st, nil
}

// endToEnd computes the end-to-end metrics of one timed run.
func (st *runStats) endToEnd() []metric {
	ps := st.ps
	n := float64(len(ps.seq))
	lat := msOf(ps.lat)
	p50, _ := percentile(lat, 0.50)
	out := []metric{
		{"setup_s", median(st.setup), "s"},
		{"throughput_rps", n / ps.wall.Seconds(), "1/s"},
		{"latency_p50_ms", p50, "ms"},
	}
	if p99, ok := percentile(lat, 0.99); ok {
		out = append(out, metric{"latency_p99_ms", p99, "ms"})
	}
	out = append(out,
		metric{"success_frac", float64(st.check.ok) / float64(st.check.attempted), "frac"},
		metric{"cpu_ms_per_req", float64(st.after.cpu-st.before.cpu) / 1e6 / n, "ms"},
		metric{"allocs_per_req", float64(st.after.mallocs-st.before.mallocs) / n, "count"},
		metric{"alloc_kb_per_req", float64(st.after.allocated-st.before.allocated) / 1024 / n, "KB"},
		metric{"heap_live_mb", float64(st.heapLive) / (1 << 20), "MB"},
		metric{"resp_kb_per_req", float64(ps.bytes) / 1024 / n, "KB"},
		metric{"norm_cct", st.check.normCCT, "ratio"},
		metric{"reconfigs_per_coflow", st.check.reconfigs, "count"},
	)
	return out
}
