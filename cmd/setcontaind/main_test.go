package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/setcontain"
	"repro/setcontain/serve"
)

// TestDebugMuxIsNotPublic: the debug mux answers /debug/pprof/, the
// public handler does not.
func TestDebugMuxIsNotPublic(t *testing.T) {
	c := setcontain.NewCollection(4)
	if _, err := c.Add([]setcontain.Item{0, 1}); err != nil {
		t.Fatal(err)
	}
	idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF))
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServer(idx, setcontain.NewStore(idx, 0), serve.Config{})
	defer sv.Close()

	for name, tc := range map[string]struct {
		h    http.Handler
		want int
	}{
		"debug":  {debugMux(), http.StatusOK},
		"public": {sv.Handler(), http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
		if rec.Code != tc.want {
			t.Errorf("%s handler: GET /debug/pprof/ = %d, want %d", name, rec.Code, tc.want)
		}
	}
}
