package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reco/internal/api"
	"reco/internal/obs"
)

// server is an in-process recod: api.NewServer behind InstrumentedHandlerOn
// with a metrics-only obs.Sink attached process-wide, plus the registry's
// /metrics.json export, served over a loopback TCP listener. It leaves out
// recod's per-request access log and panic-recovery middleware.
type server struct {
	api    *api.Server
	reg    *obs.Registry
	http   *http.Server
	served chan struct{} // closed once Serve has returned
	base   string
	client *http.Client
}

func startServer(opts api.Options, clients int) (*server, error) {
	reg := obs.NewRegistry()
	obs.Attach(&obs.Sink{Metrics: reg})
	apiServer := api.NewServer(opts)
	h, _ := apiServer.InstrumentedHandlerOn(reg)
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/metrics.json", reg.JSONHandler())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		apiServer.Close()
		obs.Detach()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &server{
		api:    apiServer,
		reg:    reg,
		http:   &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and every connection, waits for Serve to
// return, stops the job pool and detaches the sink.
func (s *server) close() {
	_ = s.http.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.api.Close()
	obs.Detach()
}

// snapshot reads the server's registry over /metrics.json.
func (s *server) snapshot() (counters, error) {
	resp, err := s.client.Get(s.base + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("read /metrics.json: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("read /metrics.json: status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode /metrics.json: %w", err)
	}
	out := counters{}
	for id, v := range raw {
		var h struct{ Count, Sum float64 }
		var x float64
		switch {
		case json.Unmarshal(v, &x) == nil:
			out[id] = x
		case json.Unmarshal(v, &h) == nil:
			out[id+".count"] = h.Count
			out[id+".sum"] = h.Sum
		}
	}
	return out, nil
}

// counters is a flattened /metrics.json snapshot: counters and gauges by
// series id, histograms as "<id>.count" and "<id>.sum".
type counters map[string]float64

// family sums every series of a metric family (all label sets), with an
// optional ".count"/".sum" suffix for histograms.
func (cs counters) family(name, suffix string) float64 {
	var total float64
	for id, v := range cs {
		if !strings.HasSuffix(id, suffix) {
			continue
		}
		base := strings.TrimSuffix(id, suffix)
		if base == name || strings.HasPrefix(base, name+"{") {
			total += v
		}
	}
	return total
}

// pass is what the client saw for one sequence of requests.
type pass struct {
	seq    []int
	lat    []time.Duration
	status []int
	hash   []uint64
	bytes  int64
	first  [][]byte // per distinct request: the body of its first response
	wall   time.Duration
	errs   []error // transport errors, at most one kept per client
}

var hashSeed = maphash.MakeSeed()

// drive sends seq in a closed loop from the given number of clients: each
// client posts its next request only after reading the previous response.
// With record, responses are hashed and the first body per distinct
// request is kept; nothing is decoded here. With a tracer, each round trip
// becomes an "http.roundtrip" span whose req argument is the distinct
// request's ID.
func (s *server) drive(p *plan, seq []int, clients int, record bool, tr *obs.Tracer) *pass {
	ps := &pass{
		seq:    seq,
		lat:    make([]time.Duration, len(seq)),
		status: make([]int, len(seq)),
		hash:   make([]uint64, len(seq)),
		first:  make([][]byte, len(p.reqs)),
	}
	taken := make([]atomic.Bool, len(p.reqs))
	var next, total atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				d := seq[i]
				r := &p.reqs[d]
				end := tr.Begin("bench", spanRoundTrip)
				t0 := time.Now()
				status, err := s.post(r, &buf)
				ps.lat[i] = time.Since(t0)
				if tr != nil {
					end(map[string]any{"req": d, "seq": i})
				}
				if err != nil {
					errs[w] = err
					continue
				}
				ps.status[i] = status
				total.Add(int64(buf.Len()))
				if !record {
					continue
				}
				ps.hash[i] = maphash.Bytes(hashSeed, buf.Bytes())
				if taken[d].CompareAndSwap(false, true) {
					ps.first[d] = bytes.Clone(buf.Bytes())
				}
			}
		}(w)
	}
	wg.Wait()
	ps.wall = time.Since(start)
	ps.bytes = total.Load()
	for _, err := range errs {
		if err != nil {
			ps.errs = append(ps.errs, err)
		}
	}
	return ps
}

// post sends one request and reads the whole response into buf.
func (s *server) post(r *request, buf *bytes.Buffer) (int, error) {
	resp, err := s.client.Post(s.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, nil
}

// warm sends seq and fails unless every response is a 200.
func (s *server) warm(p *plan, seq []int, clients int) error {
	ps := s.drive(p, seq, clients, false, nil)
	if len(ps.errs) > 0 {
		return fmt.Errorf("set-up: %w", errors.Join(ps.errs...))
	}
	for i, st := range ps.status {
		if st != http.StatusOK {
			return fmt.Errorf("set-up: request %d: status %d", seq[i], st)
		}
	}
	return nil
}
