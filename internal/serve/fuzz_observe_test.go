package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// observeAck is the success body of POST /v1/observe.
type observeAck struct {
	Observed        int64 `json:"observed"`
	SessionObserved int64 `json:"session_observed"`
	Duplicate       bool  `json:"duplicate"`
}

// FuzzObserveHandler drives the JSON observe handler with arbitrary
// bodies. No body may yield a 5xx. Every body that decodes to the events
// form must get the same status as its columnar twin — the same request
// with the events laid out as senders/sizes columns — and, when accepted,
// the same session total and the same forecast afterwards: the handler
// re-lays the events form into columns, and this pins that the two forms
// stay one ingest path.
//
// Each input runs against two fresh servers, and both first take a
// prelude observe (events form on one, columns on the other), so the
// fuzzed request decodes into pooled scratch that an earlier request has
// already dirtied.
func FuzzObserveHandler(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"t","stream":"s","events":[{"sender":1,"size":10},{"sender":2,"size":20}]}`,
		`{"tenant":"t","stream":"s","senders":[1,2],"sizes":[10,20]}`,
		`{"tenant":"t","stream":"s","seq":3,"predictor":"markov1","events":[{"sender":4},{"size":9}]}`,
		`{"tenant":"t","stream":"prelude","predictor":"lastvalue","events":[{"sender":5,"size":6}]}`,
		`{"tenant":"t","stream":"s","events":[{"sender":1,"size":2}],"senders":[1],"sizes":[2]}`,
		`{"tenant":"t","stream":"s","seq":-1,"events":[{"sender":1,"size":2}]}`,
		`{"tenant":"","stream":"s","events":[{"sender":1,"size":2}]}`,
		`{"tenant":"t","stream":"s","events":[]}`,
		`{"tenant":"t","stream":"s","events":[{"sender":1e3}]}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	prelude := observeRequest{Tenant: "t", Stream: "prelude",
		Events: []Event{{Sender: 7, Size: 70}, {Sender: 8, Size: 80}, {Sender: 9, Size: 90}}}
	f.Fuzz(func(t *testing.T, body []byte) {
		objReg, colReg := NewRegistry(Config{}), NewRegistry(Config{})
		objSrv, colSrv := NewServer(objReg), NewServer(colReg)
		if rec := postObserveJSON(t, objSrv, string(mustJSON(t, prelude))); rec.Code != 200 {
			t.Fatalf("prelude (events) returned %d: %s", rec.Code, rec.Body)
		}
		if rec := postObserveJSON(t, colSrv, string(mustJSON(t, columnarTwin(prelude)))); rec.Code != 200 {
			t.Fatalf("prelude (columns) returned %d: %s", rec.Code, rec.Body)
		}

		rec := postObserveJSON(t, objSrv, string(body))
		if rec.Code >= 500 {
			t.Fatalf("body %q yielded %d: %s", body, rec.Code, rec.Body)
		}
		var req observeRequest
		if json.Unmarshal(body, &req) != nil || len(req.Events) == 0 || len(req.Senders) > 0 || len(req.Sizes) > 0 {
			return
		}
		twin := postObserveJSON(t, colSrv, string(mustJSON(t, columnarTwin(req))))
		if twin.Code != rec.Code {
			t.Fatalf("body %q: events form got %d (%s), columnar twin got %d (%s)",
				body, rec.Code, rec.Body, twin.Code, twin.Body)
		}
		if rec.Code != 200 {
			return
		}
		var objAck, colAck observeAck
		if err := json.Unmarshal(rec.Body.Bytes(), &objAck); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(twin.Body.Bytes(), &colAck); err != nil {
			t.Fatal(err)
		}
		if objAck != colAck {
			t.Fatalf("body %q: events form acked %+v, columnar twin %+v", body, objAck, colAck)
		}
		objFc, _, objOK := objReg.ForecastInto(nil, req.Tenant, req.Stream, DefaultHorizon)
		colFc, _, colOK := colReg.ForecastInto(nil, req.Tenant, req.Stream, DefaultHorizon)
		if objOK != colOK || !reflect.DeepEqual(objFc, colFc) {
			t.Fatalf("body %q: forecasts diverge: events form %+v (%v), columnar twin %+v (%v)",
				body, objFc, objOK, colFc, colOK)
		}
	})
}

// columnarTwin returns the request with its events laid out as columns.
func columnarTwin(req observeRequest) observeRequest {
	twin := req
	twin.Events = nil
	twin.Senders = make([]int64, len(req.Events))
	twin.Sizes = make([]int64, len(req.Events))
	for i, ev := range req.Events {
		twin.Senders[i], twin.Sizes[i] = ev.Sender, ev.Size
	}
	return twin
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
