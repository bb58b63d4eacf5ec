package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzPaths are the POST endpoints FuzzScheduleRequest drives; the first
// fuzz input byte selects one, so the corpus explores all three decoders.
var fuzzPaths = []string{"/v1/schedule/single", "/v1/schedule/multi", "/v1/jobs"}

var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
	fuzzServer  *Server
)

// fuzzTarget builds one shared server for the whole fuzz run: tiny body
// cap so mutated payloads stay cheap, one worker and a short queue so the
// admission path is reachable, no cache so every accepted request runs.
func fuzzTarget() http.Handler {
	fuzzOnce.Do(func() {
		fuzzServer = NewServer(Options{
			NoCache: true, MaxBodyBytes: 1 << 16, JobWorkers: 1, JobQueue: 4,
		})
		fuzzHandler = fuzzServer.Handler()
	})
	return fuzzHandler
}

// knobSeeds are knob-bearing fuzz seeds the gate must reject with a 400 —
// out-of-range values and capability mismatches on each decoder, the job
// bodies included. TestKnobSeedsRejected pins that outcome; the fuzzer
// mutates outward from them.
var knobSeeds = []struct {
	which uint8
	body  string
}{
	{0, `{"demand":[[0,5],[5,0]],"delta":10,"cores":-1}`},
	{0, `{"demand":[[0,5],[5,0]],"delta":10,"cores":4}`},
	{0, `{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco-sparse","k":-7}`},
	{0, `{"demand":[[0,5],[5,0]],"delta":10,"k":9223372036854775807}`},
	{0, `{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"hybrid-fluid","elec_frac":1.0000001}`},
	{0, `{"demand":[[0,5],[5,0]],"delta":10,"elec_frac":1e308}`},
	{1, `{"demands":[[[0,5],[5,0]]],"delta":10,"c":4,"algorithm":"kcore","cores":-9223372036854775808}`},
	{1, `{"demands":[[[0,5],[5,0]]],"delta":10,"c":4,"cores":2,"k":2,"elec_frac":0.5}`},
	{1, `{"demands":[[[0,5],[5,0]]],"delta":10,"c":4,"algorithm":"hybrid-fluid","elec_frac":-0.5}`},
	{2, `{"kind":"single","single":{"demand":[[0,5],[5,0]],"delta":10,"cores":4}}`},
	{2, `{"kind":"single","single":{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco-sparse","k":-1}}`},
	{2, `{"kind":"single","single":{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"kcore","elec_frac":0.2}}`},
	{2, `{"kind":"multi","multi":{"demands":[[[0,5],[5,0]]],"delta":10,"c":4,"k":3}}`},
	{2, `{"kind":"multi","multi":{"demands":[[[0,5],[5,0]]],"delta":10,"c":4,"algorithm":"hybrid-fluid","elec_frac":3}}`},
}

// serveFuzz sends one fuzz input to the shared fuzz server.
func serveFuzz(which uint8, body []byte) (string, *httptest.ResponseRecorder) {
	path := fuzzPaths[int(which)%len(fuzzPaths)]
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	fuzzTarget().ServeHTTP(rec, req)
	return path, rec
}

func TestKnobSeedsRejected(t *testing.T) {
	for _, seed := range knobSeeds {
		path, rec := serveFuzz(seed.which, []byte(seed.body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", path, seed.body, rec.Code, rec.Body.Bytes())
		}
	}
}

// FuzzScheduleRequest throws arbitrary bodies at the schedule and job
// endpoints and checks the contract that matters under hostile input: no
// panic, a sane status code, and a JSON body that parses — with the error
// envelope populated on every 4xx/5xx.
func FuzzScheduleRequest(f *testing.F) {
	valid := [][]byte{
		[]byte(`{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco-sin"}`),
		[]byte(`{"demand":[[0,5],[5,0]],"delta":10,"deadline_ms":1000,"weight":2}`),
		[]byte(`{"demands":[[[0,5],[5,0]],[[0,3],[3,0]]],"delta":10,"c":4,"algorithm":"reco-sin"}`),
		[]byte(`{"kind":"single","single":{"demand":[[0,5],[5,0]],"delta":10,"algorithm":"reco-sin","deadline_ms":500,"weight":1}}`),
	}
	for i, body := range valid {
		f.Add(uint8(i), body)
	}
	f.Add(uint8(0), []byte(`{"demand":[[0,5],[5,0]],"delta":10,"deadline_ms":-1}`))
	f.Add(uint8(0), []byte(`{"demand":[[0,5],[5,0]],"delta":10,"deadline_ms":9223372036854775807}`))
	f.Add(uint8(1), []byte(`{"demands":[],"delta":10,"weight":-3}`))
	f.Add(uint8(2), []byte(`{"kind":"bogus"}`))
	f.Add(uint8(2), []byte(`{"kind":"single"}`))
	f.Add(uint8(0), []byte(`{"demand":[[1,2,3]]}`)) // non-square
	f.Add(uint8(0), []byte(`not json at all`))
	f.Add(uint8(1), []byte(`{"demands":[[[9e99]]]}`))
	f.Add(uint8(2), []byte(strings.Repeat("[", 512)))
	for _, seed := range knobSeeds {
		f.Add(seed.which, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path, rec := serveFuzz(which, body)

		code := rec.Code
		if code < 200 || code > 599 {
			t.Fatalf("%s: status %d out of range", path, code)
		}
		var payload map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("%s -> %d: non-JSON body %q: %v", path, code, rec.Body.Bytes(), err)
		}
		if code >= 400 {
			msg, ok := payload["error"].(string)
			if !ok || msg == "" {
				t.Fatalf("%s -> %d: error response without error message: %q", path, code, rec.Body.Bytes())
			}
		}
	})
}
