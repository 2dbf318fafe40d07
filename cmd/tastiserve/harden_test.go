package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/tasti"
)

// TestServerNotReady: while the index is still building, liveness holds,
// readiness and queries are refused — the contract main relies on when it
// brings the listener up before the build finishes.
func TestServerNotReady(t *testing.T) {
	srv := newServerShell(serverOptions{dataset: "night-street", size: 100})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "building" {
		t.Errorf("readyz = %d %v", resp.StatusCode, body)
	}

	resp, err = http.Post(ts.URL+"/query/aggregate", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query while building status = %d, want 503", resp.StatusCode)
	}
}

// TestServerReadyz: a built server reports ready and a closed labeler
// circuit.
func TestServerReadyz(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 400, train: 30, reps: 40, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", resp.StatusCode, body)
	}
	if body["breaker_state"] != "closed" {
		t.Errorf("breaker_state = %v, want closed", body["breaker_state"])
	}
	if body["degraded"] != false {
		t.Errorf("degraded = %v, want false", body["degraded"])
	}
}

// TestServerPanicRecovery: a panicking handler becomes a 500, not a dropped
// connection.
func TestServerPanicRecovery(t *testing.T) {
	srv := newServerShell(serverOptions{})
	h := srv.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
}

// TestServerQueryTimeout: a query whose per-request budget has expired is
// refused (503) at its first label draw — it buys nothing.
func TestServerQueryTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 400, train: 30, reps: 40, seed: 1,
		queryTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query/aggregate", "application/json",
		strings.NewReader(`{"class":"car","err":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}

	// Non-query routes are exempt from the query budget.
	resp, err = http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/index status = %d, want 200", resp.StatusCode)
	}
}

// TestServerChaosServing: with transient labeler faults injected at 30% and
// retries on, the build and every query succeed, and the reliability
// counters surface the recovered faults.
func TestServerChaosServing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := serverOptions{
		dataset: "night-street", size: 400, train: 30, reps: 40, seed: 1,
		faultRate: 0.3,
	}
	opts.retry = tasti.DefaultRetryPolicy(1)
	opts.retry.BaseDelay = 0
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query/aggregate", "application/json",
		strings.NewReader(`{"class":"car","err":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	agg := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate under faults = %d %v", resp.StatusCode, agg)
	}

	resp, err = http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody(t, resp)
	if info["build_label_retries"].(float64) <= 0 {
		t.Errorf("build_label_retries = %v, want > 0 at 30%% fault rate", info["build_label_retries"])
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready := decodeBody(t, resp)
	if ready["status"] != "ready" || ready["breaker_state"] != "closed" {
		t.Errorf("readyz under faults = %v", ready)
	}
}
