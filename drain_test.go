package sepdl

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sepdl/internal/leakcheck"
)

// TestDrainTypedError pins the runtime drain switch: after Drain every
// query fails with an error matching both ErrOverloaded and ErrDraining
// (plus the *OverloadError shape), and Resume restores service.
func TestDrainTypedError(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngineOpts(t, 5)

	e.Drain()
	if !e.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	_, err := e.Query(`buys(a00, Y)?`)
	if !errors.Is(err, ErrDraining) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrDraining and ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || !oe.Draining {
		t.Fatalf("err = %#v, want OverloadError{Draining: true}", err)
	}

	// Drain is idempotent; Resume flips back.
	e.Drain()
	e.Resume()
	if e.Draining() {
		t.Fatal("Draining() = true after Resume")
	}
	res, err := e.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("answers = %d, want 5", res.Len())
	}

	st := e.Stats()
	if st.DrainRejections != 1 || st.Overloads != 1 {
		t.Fatalf("counters = %+v, want 1 drain rejection / 1 overload", st)
	}
}

// TestDrainWakesQueuedWaiters pins the hard case: a query already queued
// at the admission gate when Drain flips must wake and fail typed — not
// wait for a slot that will never be granted to it.
func TestDrainWakesQueuedWaiters(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngineOpts(t, 5, WithMaxConcurrent(1), WithAdmissionWait(30*time.Second))
	entered, release := blockEval(t, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Query(`buys(a00, Y)?`); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the slot is held mid-evaluation

	queued := make(chan error, 1)
	go func() {
		_, err := e.Query(`buys(a01, Y)?`)
		queued <- err
	}()
	// Let the second query park at the gate, then drain. If the sleep ever
	// proves too short the query still fails typed — it just exercises the
	// pre-queue drain check instead of the wakeup path.
	time.Sleep(10 * time.Millisecond)
	e.Drain()

	err := <-queued
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("queued query err = %v, want ErrDraining", err)
	}

	// The admitted query must run to completion despite the drain.
	close(release)
	wg.Wait()
	if got := e.Stats().InFlight; got != 0 {
		t.Fatalf("InFlight = %d", got)
	}
}

// TestPreparedDrainRace pins the satellite case: Prepare succeeds, drain
// begins, Run must fail with the typed drain error — promptly, no hang,
// no panic — and the handle works again after Resume.
func TestPreparedDrainRace(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngineOpts(t, 5)

	p, err := e.Prepare(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	e.Drain()
	_, err = p.Run(t.Context(), "a00")
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("Run during drain: %v, want ErrDraining", err)
	}
	// Batch execution is shed the same way.
	_, err = p.RunBatch(t.Context(), []string{"a00"}, []string{"a01"})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("RunBatch during drain: %v, want ErrDraining", err)
	}

	e.Resume()
	res, err := p.Run(t.Context(), "a00")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("answers = %d, want 5", res.Len())
	}
}

// TestEngineStatsCounters pins the aggregate counter accounting: queries,
// errors, cache hits, and the in-flight gauge returning to zero.
func TestEngineStatsCounters(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngineOpts(t, 5)

	if _, err := e.Query(`buys(a00, Y)?`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`buys(a00, Y)?`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`buys(a00, Y)?`, WithBudget(Budget{MaxTuples: 1})); err == nil {
		t.Fatal("tuple-capped query succeeded")
	}

	st := e.Stats()
	if st.Queries != 3 || st.QueryErrors != 1 || st.BudgetAborts != 1 {
		t.Fatalf("counters = %+v, want 3 queries / 1 error / 1 budget abort", st)
	}
	if st.PlanCacheHits == 0 {
		t.Fatalf("counters = %+v, want a plan-cache hit on the repeat query", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d", st.InFlight)
	}
}

// TestEngineStatsBatchAccounting pins which calls count as batches: every
// evaluation bumps Queries once, but only QueryBatch and RunBatch bump
// Batches and BatchQueries — a single Query, QueryCtx, or Prepared.Run is
// not a batch, and a batch of one still is.
func TestEngineStatsBatchAccounting(t *testing.T) {
	e := chainEngineOpts(t, 5)
	ctx := t.Context()
	p, err := e.Prepare(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name                           string
		call                           func() error
		queries, batches, batchQueries uint64
	}{
		{"Query", func() error { _, err := e.Query(`buys(a00, Y)?`); return err }, 1, 0, 0},
		{"QueryCtx", func() error { _, err := e.QueryCtx(ctx, `buys(a01, Y)?`); return err }, 2, 0, 0},
		{"Run", func() error { _, err := p.Run(ctx, "a02"); return err }, 3, 0, 0},
		{"QueryBatch", func() error {
			_, err := e.QueryBatch(ctx, []string{`buys(a00, Y)?`, `buys(a01, Y)?`, `buys(a02, Y)?`})
			return err
		}, 4, 1, 3},
		{"RunBatch", func() error { _, err := p.RunBatch(ctx, []string{"a00"}, []string{"a03"}); return err }, 5, 2, 5},
		{"RunBatch of one", func() error { _, err := p.RunBatch(ctx, []string{"a04"}); return err }, 6, 3, 6},
		{"EDB Query", func() error { _, err := e.Query(`friend(a00, Y)?`); return err }, 7, 3, 6},
	}
	for _, s := range steps {
		if err := s.call(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		st := e.Stats()
		if st.Queries != s.queries || st.Batches != s.batches || st.BatchQueries != s.batchQueries {
			t.Fatalf("after %s: Queries/Batches/BatchQueries = %d/%d/%d, want %d/%d/%d",
				s.name, st.Queries, st.Batches, st.BatchQueries, s.queries, s.batches, s.batchQueries)
		}
	}
}
