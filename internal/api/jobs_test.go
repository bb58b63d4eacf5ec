package api

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reco/internal/algo"
	"reco/internal/obs"
)

// blockSched is a registry scheduler tests steer: when gate is non-nil,
// Schedule blocks until the gate closes or the context ends. It otherwise
// returns a trivial deterministic result, so the registry-wide tests that
// sweep algo.All() can run it safely (they skip "test-" names anyway).
type blockSched struct {
	mu      sync.Mutex
	gate    chan struct{}
	started chan struct{} // receives one token per Schedule call underway
}

var testBlock = &blockSched{}

var registerTestBlock sync.Once

func ensureTestBlock() {
	registerTestBlock.Do(func() { algo.Register(testBlock) })
}

func (b *blockSched) Name() string     { return "test-block" }
func (b *blockSched) Describe() string { return "test scheduler that blocks on demand" }
func (b *blockSched) Caps() algo.Capabilities {
	return algo.Capabilities{SingleCoflow: true, MultiCoflow: true}
}

// arm installs a fresh gate and returns (release, started).
func (b *blockSched) arm() (func(), chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = make(chan struct{})
	b.started = make(chan struct{}, 16)
	gate := b.gate
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, b.started
}

func (b *blockSched) disarm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate, b.started = nil, nil
}

func (b *blockSched) Schedule(ctx context.Context, req algo.Request) (*algo.Result, error) {
	b.mu.Lock()
	gate, started := b.gate, b.started
	b.mu.Unlock()
	if started != nil {
		started <- struct{}{}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &algo.Result{CCTs: make([]int64, len(req.Demands)), Reconfigs: len(req.Demands)}, nil
}

func newJobTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	ensureTestBlock()
	s := NewServer(opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, NewClient(srv.URL, srv.Client())
}

var jobDemand = [][]int64{
	{104, 109, 102},
	{103, 105, 107},
	{108, 101, 106},
}

func TestJobLifecycleSingle(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	info, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if info.ID == "" || (info.State != JobQueued && info.State != JobRunning && info.State != JobDone) {
		t.Fatalf("submit info: %+v", info)
	}
	if info.Algorithm != algo.NameRecoSin {
		t.Errorf("algorithm defaulted to %q, want reco-sin", info.Algorithm)
	}
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobDone || final.Single == nil {
		t.Fatalf("final: %+v", final)
	}
	// The async result must equal the synchronous endpoint's result.
	sync, err := client.ScheduleSingle(ctx, SingleRequest{Demand: jobDemand, Delta: 100})
	if err != nil {
		t.Fatalf("ScheduleSingle: %v", err)
	}
	if final.Single.CCT != sync.CCT || final.Single.Reconfigs != sync.Reconfigs || final.Single.LowerBound != sync.LowerBound {
		t.Errorf("async %+v != sync %+v", final.Single, sync)
	}
	if final.Finished == "" || final.Started == "" {
		t.Errorf("missing timestamps: %+v", final)
	}
}

func TestJobLifecycleMulti(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	req := MultiRequest{Demands: [][][]int64{jobDemand, jobDemand}, Delta: 100, C: 4}
	info, err := client.SubmitJob(ctx, JobRequest{Kind: "multi", Multi: &req})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobDone || final.Multi == nil {
		t.Fatalf("final: %+v", final)
	}
	sync, err := client.ScheduleMulti(ctx, req)
	if err != nil {
		t.Fatalf("ScheduleMulti: %v", err)
	}
	if len(final.Multi.CCTs) != len(sync.CCTs) || final.Multi.Reconfigs != sync.Reconfigs {
		t.Errorf("async %+v != sync %+v", final.Multi, sync)
	}
	for i := range sync.CCTs {
		if final.Multi.CCTs[i] != sync.CCTs[i] {
			t.Errorf("CCT[%d]: async %d != sync %d", i, final.Multi.CCTs[i], sync.CCTs[i])
		}
	}
}

func TestJobListAndGet(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := client.SubmitJob(ctx, JobRequest{
			Kind:   "single",
			Single: &SingleRequest{Demand: jobDemand, Delta: 100},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	list, err := client.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if j.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, j.ID, ids[i])
		}
	}
	if _, err := client.Job(ctx, "j99999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id: %v", err)
	}
}

func TestJobCancelRunning(t *testing.T) {
	_, client := newJobTestServer(t, Options{JobWorkers: 1})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()

	info, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	<-started // the scheduler is provably inside Schedule now
	if _, err := client.CancelJob(ctx, info.ID); err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	final, err := client.WaitJob(ctx, info.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != JobCancelled {
		t.Errorf("state = %s, want cancelled", final.State)
	}
	if final.Single != nil {
		t.Error("cancelled job carries a result")
	}
}

func TestJobCancelQueued(t *testing.T) {
	// One worker, saturated by a blocked job: the second job must be
	// cancellable while still queued, without ever running.
	_, client := newJobTestServer(t, Options{JobWorkers: 1, JobQueue: 8})
	release, started := testBlock.arm()
	defer func() { release(); testBlock.disarm() }()
	ctx := context.Background()

	blocker, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"},
	})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	queued, err := client.SubmitJob(ctx, JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100, Algorithm: "test-block"},
	})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	cancelled, err := client.CancelJob(ctx, queued.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if cancelled.State != JobCancelled {
		t.Errorf("queued job state after cancel = %s, want cancelled", cancelled.State)
	}
	release()
	final, err := client.WaitJob(ctx, blocker.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob(blocker): %v", err)
	}
	if final.State != JobDone {
		t.Errorf("blocker state = %s, want done", final.State)
	}
	// The cancelled job must stay cancelled even after its worker slot came
	// up (the pool closure observes the terminal state and returns).
	again, err := client.Job(ctx, queued.ID)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if again.State != JobCancelled || again.Started != "" {
		t.Errorf("cancelled-while-queued job: %+v", again)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	ctx := context.Background()
	cases := []JobRequest{
		{},               // no kind
		{Kind: "single"}, // kind without payload
		{Kind: "multi"},  // kind without payload
		{Kind: "bogus", Single: &SingleRequest{Demand: jobDemand, Delta: 1}},                        // unknown kind
		{Kind: "single", Single: &SingleRequest{Demand: [][]int64{{1, 2}}, Delta: 1}},               // non-square
		{Kind: "single", Single: &SingleRequest{Demand: jobDemand, Delta: 1, Algorithm: "no-such"}}, // unknown algorithm
		{Kind: "multi", Multi: &MultiRequest{Demands: nil, Delta: 1}},                               // empty batch
	}
	for i, req := range cases {
		if _, err := client.SubmitJob(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("case %d: err = %v, want 400", i, err)
		}
	}
}

func TestJobSubmitAfterCloseRejected(t *testing.T) {
	ensureTestBlock()
	s := NewServer(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())
	s.Close()
	_, err := client.SubmitJob(context.Background(), JobRequest{
		Kind:   "single",
		Single: &SingleRequest{Demand: jobDemand, Delta: 100},
	})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("submit after close: %v, want 503", err)
	}
}

func TestJobEndpointMethods(t *testing.T) {
	_, client := newJobTestServer(t, Options{})
	// DELETE on the collection is not a route.
	req, _ := http.NewRequest(http.MethodDelete, strings.TrimSuffix(client.base, "/")+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

// TestJobSubmitGatesKnobs: a job whose knobs the sync endpoints reject —
// an active knob without its capability, or an out-of-range value — is
// rejected at submission with the sync endpoint's exact 400 body, and
// nothing is queued or counted as submitted.
func TestJobSubmitGatesKnobs(t *testing.T) {
	ensureTestBlock()
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	defer obs.Detach()
	s := NewServer(Options{})
	srv := httptest.NewServer(s.Handler())
	defer func() { srv.Close(); s.Close() }()

	demand := `[[104,109,102],[103,105,107],[108,101,106]]`
	cases := []struct{ kind, req string }{
		{"single", `{"demand":` + demand + `,"delta":100,"cores":4}`},
		{"single", `{"demand":` + demand + `,"delta":100,"algorithm":"reco-sin","k":3}`},
		{"single", `{"demand":` + demand + `,"delta":100,"elec_frac":2}`},
		{"single", `{"demand":` + demand + `,"delta":100,"algorithm":"hybrid-fluid","elec_frac":2}`},
		{"single", `{"demand":` + demand + `,"delta":-1,"algorithm":"kcore","cores":2}`},
		{"multi", `{"demands":[` + demand + `],"delta":100,"c":4,"elec_frac":0.5}`},
		{"multi", `{"demands":[` + demand + `],"delta":100,"c":4,"algorithm":"kcore","cores":-3}`},
	}
	for _, tc := range cases {
		syncStatus, syncBody := postRaw(t, srv.URL+"/v1/schedule/"+tc.kind, []byte(tc.req))
		if syncStatus != http.StatusBadRequest {
			t.Fatalf("sync %s %s: status %d, want 400", tc.kind, tc.req, syncStatus)
		}
		before := reg.Counter("jobs_submitted_total").Value()
		job := `{"kind":"` + tc.kind + `","` + tc.kind + `":` + tc.req + `}`
		status, body := postRaw(t, srv.URL+"/v1/jobs", []byte(job))
		if status != http.StatusBadRequest || !bytes.Equal(body, syncBody) {
			t.Errorf("job %s: %d %s, want 400 %s", job, status, body, syncBody)
		}
		if got := reg.Counter("jobs_submitted_total").Value(); got != before {
			t.Errorf("job %s: jobs_submitted_total %d -> %d", job, before, got)
		}
	}
	if jobs := s.jobs.list(); len(jobs) != 0 {
		t.Errorf("rejected submissions left jobs behind: %+v", jobs)
	}
}
