package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bfc/internal/harness"
	"bfc/internal/service"
)

// TestFetchTableRendersTheSuitesFigure: a Fig 6 suite's jobs are Fig 5a's, so
// its records' meta names fig05a; fetch -table must still print Fig 6, the
// figure the suite resolved to.
func TestFetchTableRendersTheSuitesFigure(t *testing.T) {
	store, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: store, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	spec, err := service.ParseSuiteSpec([]byte(`{"figure":"fig06","scale":"tiny","schemes":["BFC"]}`))
	if err != nil {
		t.Fatal(err)
	}
	status, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); status.State == service.StateRunning; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("suite still running after a minute")
		}
		if status, err = svc.Status(status.ID); err != nil {
			t.Fatal(err)
		}
	}
	if status.State != service.StateDone {
		t.Fatalf("suite ended %s: %s", status.State, status.Error)
	}

	var out bytes.Buffer
	c := &client{base: ts.URL}
	if err := c.fetch([]string{"-table", status.ID}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "## Fig 6") || !strings.Contains(out.String(), "  BFC ") {
		t.Errorf("fetch -table printed\n%s\nwant Fig 6's BFC row", out.String())
	}
}
