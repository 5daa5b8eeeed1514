package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mview"
)

func do(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, out
}

func setup(t *testing.T) *Handler {
	t.Helper()
	h := New()
	if code, _ := do(t, h, "POST", "/relations", `{"name":"r","attrs":["A","B"]}`); code != http.StatusCreated {
		t.Fatalf("create r: %d", code)
	}
	if code, _ := do(t, h, "POST", "/relations", `{"name":"s","attrs":["C","D"]}`); code != http.StatusCreated {
		t.Fatalf("create s: %d", code)
	}
	body := `{"name":"v","from":["r","s"],"where":"A < 10 && C > 5 && B = C","select":["A","D"],"options":["filtered"]}`
	if code, resp := do(t, h, "POST", "/views", body); code != http.StatusCreated {
		t.Fatalf("create v: %d %v", code, resp)
	}
	return h
}

func TestFullFlow(t *testing.T) {
	h := setup(t)
	code, resp := do(t, h, "POST", "/exec",
		`{"ops":[{"op":"insert","rel":"r","values":[9,10]},{"op":"insert","rel":"s","values":[10,20]}]}`)
	if code != http.StatusOK {
		t.Fatalf("exec: %d %v", code, resp)
	}
	if resp["Inserted"].(float64) != 2 {
		t.Errorf("exec resp = %v", resp)
	}

	code, resp = do(t, h, "GET", "/views/v", "")
	if code != http.StatusOK {
		t.Fatalf("get view: %d", code)
	}
	if resp["count"].(float64) != 1 {
		t.Errorf("view = %v", resp)
	}
	schema := resp["schema"].([]any)
	if schema[0] != "r.A" || schema[1] != "s.D" {
		t.Errorf("schema = %v", schema)
	}

	code, resp = do(t, h, "GET", "/views/v/relevant?rel=r&values=11,10", "")
	if code != http.StatusOK || resp["relevant"] != false {
		t.Errorf("relevant(11,10) = %d %v", code, resp)
	}
	code, resp = do(t, h, "GET", "/views/v/relevant?rel=r&values=9,10", "")
	if code != http.StatusOK || resp["relevant"] != true {
		t.Errorf("relevant(9,10) = %d %v", code, resp)
	}

	code, resp = do(t, h, "GET", "/views/v/stats", "")
	if code != http.StatusOK || resp["Refreshes"].(float64) < 1 {
		t.Errorf("stats = %d %v", code, resp)
	}

	code, resp = do(t, h, "GET", "/views/v/explain", "")
	if code != http.StatusOK || !strings.Contains(resp["explain"].(string), "view v") {
		t.Errorf("explain = %d %v", code, resp)
	}
	if code, _ := do(t, h, "GET", "/views/zzz/explain", ""); code != http.StatusNotFound {
		t.Errorf("explain unknown = %d", code)
	}

	code, resp = do(t, h, "GET", "/relations/r", "")
	if code != http.StatusOK || resp["count"].(float64) != 1 {
		t.Errorf("relation r = %d %v", code, resp)
	}

	code, resp = do(t, h, "GET", "/catalog", "")
	if code != http.StatusOK {
		t.Fatalf("catalog: %d", code)
	}
	if len(resp["relations"].([]any)) != 2 || len(resp["views"].([]any)) != 1 {
		t.Errorf("catalog = %v", resp)
	}
}

func TestDeferredRefresh(t *testing.T) {
	h := New()
	do(t, h, "POST", "/relations", `{"name":"r","attrs":["A"]}`)
	do(t, h, "POST", "/views", `{"name":"v","from":["r"],"where":"A > 0","options":["deferred"]}`)
	do(t, h, "POST", "/exec", `{"ops":[{"op":"insert","rel":"r","values":[5]}]}`)
	_, resp := do(t, h, "GET", "/views/v", "")
	if resp["count"].(float64) != 0 {
		t.Errorf("deferred view should be stale: %v", resp)
	}
	code, _ := do(t, h, "POST", "/views/v/refresh", "")
	if code != http.StatusOK {
		t.Fatalf("refresh: %d", code)
	}
	_, resp = do(t, h, "GET", "/views/v", "")
	if resp["count"].(float64) != 1 {
		t.Errorf("after refresh: %v", resp)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// In-memory handler: 409.
	h := New()
	if code, _ := do(t, h, "POST", "/checkpoint", ""); code != http.StatusConflict {
		t.Errorf("in-memory checkpoint = %d", code)
	}
	// Durable handler: 200.
	db, err := mview.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hd := NewWith(db)
	do(t, hd, "POST", "/relations", `{"name":"r","attrs":["A"]}`)
	do(t, hd, "POST", "/exec", `{"ops":[{"op":"insert","rel":"r","values":[1]}]}`)
	if code, resp := do(t, hd, "POST", "/checkpoint", ""); code != http.StatusOK {
		t.Errorf("durable checkpoint = %d %v", code, resp)
	}
}

func TestErrors(t *testing.T) {
	h := setup(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/relations", `{"name":"r","attrs":["A"]}`, http.StatusBadRequest}, // duplicate
		{"POST", "/relations", `not json`, http.StatusBadRequest},
		{"POST", "/relations", `{"name":"x","attrs":["A"],"bogus":1}`, http.StatusBadRequest},
		{"POST", "/views", `{"name":"v2","from":["zzz"]}`, http.StatusBadRequest},
		{"POST", "/views", `{"name":"v2","from":["r"],"options":["bogus"]}`, http.StatusBadRequest},
		{"GET", "/views/zzz", "", http.StatusNotFound},
		{"GET", "/views/zzz/stats", "", http.StatusNotFound},
		{"POST", "/views/zzz/refresh", "", http.StatusNotFound},
		{"GET", "/relations/zzz", "", http.StatusNotFound},
		{"GET", "/views/v/relevant", "", http.StatusBadRequest},
		{"GET", "/views/v/relevant?rel=r&values=x", "", http.StatusBadRequest},
		{"GET", "/views/v/relevant?rel=zzz&values=1,2", "", http.StatusBadRequest},
		{"POST", "/exec", `{"ops":[{"op":"upsert","rel":"r","values":[1]}]}`, http.StatusBadRequest},
		{"POST", "/exec", `{"ops":[{"op":"insert","rel":"zzz","values":[1]}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, resp := do(t, h, c.method, c.path, c.body)
		if code != c.want {
			t.Errorf("%s %s: code = %d, want %d (%v)", c.method, c.path, code, c.want, resp)
		}
		if resp["error"] == "" {
			t.Errorf("%s %s: missing error body", c.method, c.path)
		}
	}
}

// TestExecRidesGroupCommit runs concurrent POST /exec requests against
// a database with the group-commit scheduler enabled: every request
// must be answered individually (its own TxInfo), the view must end up
// with every row, and /debug/stats must report the scheduler active.
func TestExecRidesGroupCommit(t *testing.T) {
	db := mview.Open(mview.WithGroupCommit(8, 2*time.Millisecond))
	defer db.Close()
	h := NewWith(db)
	if code, _ := do(t, h, "POST", "/relations", `{"name":"r","attrs":["A","B"]}`); code != http.StatusCreated {
		t.Fatal("create r")
	}
	if code, _ := do(t, h, "POST", "/views", `{"name":"v","from":["r"],"where":"B = 10"}`); code != http.StatusCreated {
		t.Fatal("create v")
	}

	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"ops":[{"op":"insert","rel":"r","values":[%d,10]}]}`, i)
			code, resp := do(t, h, "POST", "/exec", body)
			if code != http.StatusOK {
				t.Errorf("writer %d: code %d %v", i, code, resp)
				return
			}
			if resp["Inserted"].(float64) != 1 {
				t.Errorf("writer %d: resp %v", i, resp)
			}
		}(i)
	}
	wg.Wait()

	code, resp := do(t, h, "GET", "/views/v", "")
	if code != http.StatusOK || resp["count"].(float64) != writers {
		t.Fatalf("view after group commits: %d %v", code, resp)
	}
	code, resp = do(t, h, "GET", "/debug/stats", "")
	if code != http.StatusOK || resp["group_commit"] != true {
		t.Fatalf("debug/stats: %d group_commit=%v", code, resp["group_commit"])
	}
}
