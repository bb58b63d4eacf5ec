// Command recoctl is the command-line client for a recod scheduling
// service.
//
//	recoctl -server http://127.0.0.1:8372 health
//	recoctl single -demand demand.json -delta 100
//	recoctl single -demand demand.json -alg hybrid-fluid -elec-frac 0.2
//	recoctl multi  -demands demands.json -delta 100 -c 4
//	recoctl workload -n 40 -coflows 20 -seed 1 > demands.json
//	recoctl job submit -kind single -demand demand.json -delta 100 -wait
//	recoctl job status j00000001
//	recoctl job list
//	recoctl job cancel j00000001
//
// demand.json holds a JSON array of rows ([[...int64]]); demands.json holds
// an array of such matrices. `workload` emits demands.json-compatible
// output, so the three subcommands compose:
//
//	recoctl workload -n 24 -coflows 8 | recoctl multi -demands - -delta 100 -c 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"reco/internal/algo"
	"reco/internal/api"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	global := flag.NewFlagSet("recoctl", flag.ContinueOnError)
	global.SetOutput(stderr)
	server := global.String("server", "http://127.0.0.1:8372", "recod base URL")
	timeout := global.Duration("timeout", 30*time.Second, "request timeout")
	if err := global.Parse(args); err != nil {
		return 2
	}
	rest := global.Args()
	if len(rest) == 0 {
		fmt.Fprintln(stderr, "recoctl: subcommand required: health, single, multi, workload, job")
		return 2
	}
	client := api.NewClient(*server, nil)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var err error
	switch rest[0] {
	case "health":
		err = client.Healthz(ctx)
		if err == nil {
			fmt.Fprintln(stdout, "ok")
		}
	case "single":
		err = runSingle(ctx, client, rest[1:], stdin, stdout, stderr)
	case "multi":
		err = runMulti(ctx, client, rest[1:], stdin, stdout, stderr)
	case "workload":
		err = runWorkload(ctx, client, rest[1:], stdout, stderr)
	case "job":
		var code int
		code, err = runJob(ctx, client, rest[1:], stdin, stdout, stderr)
		if code != 0 {
			return code
		}
	default:
		fmt.Fprintf(stderr, "recoctl: unknown subcommand %q\n", rest[0])
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "recoctl: %v\n", err)
		return 1
	}
	return 0
}

func runSingle(ctx context.Context, client *api.Client, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("single", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var req api.SingleRequest
	demandPath := fs.String("demand", "-", "path to the demand matrix JSON ('-' for stdin)")
	fs.StringVar(&req.Algorithm, "alg", "", "algorithm name (empty: the server's single-coflow default)")
	fs.Int64Var(&req.Delta, "delta", 100, "reconfiguration delay in ticks")
	bindRequestFlags(fs, &req.DeadlineMS, &req.Weight, &req.Knobs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := readJSONInput(*demandPath, stdin, &req.Demand); err != nil {
		return err
	}
	resp, err := client.ScheduleSingle(ctx, req)
	if err != nil {
		return err
	}
	return writeJSON(stdout, resp)
}

// bindRequestFlags binds the flags single, multi and job submit share —
// the SLA pair and one flag per algo.KnobTable entry — to a request's
// fields.
func bindRequestFlags(fs *flag.FlagSet, deadlineMS *int64, weight *float64, knobs *algo.Knobs) {
	fs.Int64Var(deadlineMS, "deadline-ms", 0, "request SLA in milliseconds (0 = none); sync requests answer 504 past it, jobs drive admission and miss reporting with it")
	fs.Float64Var(weight, "weight", 0, "admission weight (0 = default 1); heavier requests are shed last under overload")
	algo.BindKnobFlags(fs, knobs)
}

func runMulti(ctx context.Context, client *api.Client, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("multi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var req api.MultiRequest
	demandsPath := fs.String("demands", "-", "path to the demand matrices JSON ('-' for stdin)")
	fs.StringVar(&req.Algorithm, "alg", "", "algorithm name (empty: the server's multi-coflow default)")
	fs.Int64Var(&req.Delta, "delta", 100, "reconfiguration delay in ticks")
	fs.Int64Var(&req.C, "c", 4, "optical transmission threshold")
	bindRequestFlags(fs, &req.DeadlineMS, &req.Weight, &req.Knobs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if req.Demands, err = readDemands(*demandsPath, stdin); err != nil {
		return err
	}
	resp, err := client.ScheduleMulti(ctx, req)
	if err != nil {
		return err
	}
	// Flow lists are large; report the summary.
	summary := struct {
		CCTs      []int64 `json:"ccts"`
		Reconfigs int     `json:"reconfigs"`
		Flows     int     `json:"flows"`
	}{resp.CCTs, resp.Reconfigs, len(resp.Flows)}
	return writeJSON(stdout, summary)
}

func runWorkload(ctx context.Context, client *api.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 40, "fabric ports")
	coflows := fs.Int("coflows", 20, "number of coflows")
	seed := fs.Int64("seed", 1, "generator seed")
	minDemand := fs.Int64("min", 400, "minimum flow demand in ticks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := client.GenerateWorkload(ctx, api.WorkloadRequest{
		N: *n, NumCoflows: *coflows, Seed: *seed, MinDemand: *minDemand,
	})
	if err != nil {
		return err
	}
	return writeJSON(stdout, resp)
}

// runJob dispatches the async-job verbs. It returns a usage code (2) for
// unknown verbs so the caller can distinguish usage errors from request
// failures.
func runJob(ctx context.Context, client *api.Client, args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "recoctl job: verb required: submit, status, list, cancel")
		return 2, nil
	}
	var err error
	switch args[0] {
	case "submit":
		err = runJobSubmit(ctx, client, args[1:], stdin, stdout, stderr)
	case "status":
		err = runJobStatus(ctx, client, args[1:], stdout, stderr)
	case "list":
		err = runJobList(ctx, client, stdout)
	case "cancel":
		err = runJobCancel(ctx, client, args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "recoctl job: unknown verb %q\n", args[0])
		return 2, nil
	}
	return 0, err
}

func runJobSubmit(ctx context.Context, client *api.Client, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("job submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "single", `job kind: "single" or "multi"`)
	demandPath := fs.String("demand", "-", "single: path to the demand matrix JSON ('-' for stdin)")
	demandsPath := fs.String("demands", "-", "multi: path to the demand matrices JSON ('-' for stdin)")
	var sr api.SingleRequest // a multi job copies its shared fields
	fs.Int64Var(&sr.Delta, "delta", 100, "reconfiguration delay in ticks")
	c := fs.Int64("c", 4, "multi: optical transmission threshold")
	fs.StringVar(&sr.Algorithm, "alg", "", "algorithm name (empty: the kind's default)")
	bindRequestFlags(fs, &sr.DeadlineMS, &sr.Weight, &sr.Knobs)
	wait := fs.Bool("wait", false, "poll until the job finishes and print the final state")
	poll := fs.Duration("poll", 100*time.Millisecond, "polling interval with -wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := api.JobRequest{Kind: *kind}
	switch *kind {
	case "single":
		if err := readJSONInput(*demandPath, stdin, &sr.Demand); err != nil {
			return err
		}
		req.Single = &sr
	case "multi":
		demands, err := readDemands(*demandsPath, stdin)
		if err != nil {
			return err
		}
		req.Multi = &api.MultiRequest{
			Demands: demands, Delta: sr.Delta, C: *c, Algorithm: sr.Algorithm,
			DeadlineMS: sr.DeadlineMS, Weight: sr.Weight, Knobs: sr.Knobs,
		}
	default:
		return fmt.Errorf("unknown job kind %q", *kind)
	}
	info, err := client.SubmitJob(ctx, req)
	if err != nil {
		return err
	}
	if *wait {
		if info, err = client.WaitJob(ctx, info.ID, *poll); err != nil {
			return err
		}
	}
	return writeJSON(stdout, info)
}

func runJobStatus(ctx context.Context, client *api.Client, args []string, stdout, stderr io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: recoctl job status <id>")
	}
	info, err := client.Job(ctx, args[0])
	if err != nil {
		return err
	}
	return writeJSON(stdout, info)
}

func runJobList(ctx context.Context, client *api.Client, stdout io.Writer) error {
	list, err := client.Jobs(ctx)
	if err != nil {
		return err
	}
	return writeJSON(stdout, list)
}

func runJobCancel(ctx context.Context, client *api.Client, args []string, stdout, stderr io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: recoctl job cancel <id>")
	}
	info, err := client.CancelJob(ctx, args[0])
	if err != nil {
		return err
	}
	return writeJSON(stdout, info)
}

// readDemands reads a demand-matrix batch, accepting either a bare array of
// matrices or the {"demands": ...} wrapper `recoctl workload` emits.
func readDemands(path string, stdin io.Reader) ([][][]int64, error) {
	raw, err := readInput(path, stdin)
	if err != nil {
		return nil, err
	}
	var payload struct {
		Demands [][][]int64 `json:"demands"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil || payload.Demands == nil {
		if err2 := json.Unmarshal(raw, &payload.Demands); err2 != nil {
			return nil, fmt.Errorf("decoding demands: %w", err2)
		}
	}
	return payload.Demands, nil
}

func readInput(path string, stdin io.Reader) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(stdin)
	}
	return os.ReadFile(path)
}

func readJSONInput(path string, stdin io.Reader, dst interface{}) error {
	raw, err := readInput(path, stdin)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
