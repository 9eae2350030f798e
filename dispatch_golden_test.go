package sepdl

// Dispatch golden: every corpus query under every strategy, through both
// single-query entry points (Query and Prepared.Run), on a default engine
// and on one with both caches off. The rendered answer (or error text) and
// every Stats field except Duration are pinned in
// testdata/dispatch_golden.txt, so a change to how a query reaches its
// strategy cannot silently move answers, Definition 4.2 sizes, or cache
// accounting. Regenerate with `go test -run TestDispatchGolden -update .`
// only when a change in those numbers is intended.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/dispatch_golden.txt from current output")

const dispatchGoldenPath = "testdata/dispatch_golden.txt"

// renderOutcome renders one query outcome: the answer and all
// deterministic Stats fields, or the error text.
func renderOutcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := res.Stats
	names := make([]string, 0, len(s.RelationSizes))
	for n := range s.RelationSizes {
		names = append(names, n)
	}
	sort.Strings(names)
	sizes := make([]string, len(names))
	for i, n := range names {
		sizes[i] = fmt.Sprintf("%s=%d", n, s.RelationSizes[n])
	}
	return fmt.Sprintf("%s\n    strategy=%s fallback=%q iterations=%d inserted=%d max=%s:%d peak_bytes=%d closure=%d/%d plan_hit=%t batch=%d\n    sizes={%s}",
		res, s.Strategy, s.FallbackFrom, s.Iterations, s.Inserted, s.MaxRelation, s.MaxRelationSize,
		s.PeakIntermediateBytes, s.ClosureCacheHits, s.ClosureCacheMisses, s.PlanCacheHit, s.BatchSize,
		strings.Join(sizes, " "))
}

func TestDispatchGolden(t *testing.T) {
	strategies := []Strategy{
		Separable, MagicSets, MagicSetsSup, Counting, HenschenNaqvi,
		AhoUllman, Tabling, SemiNaive, Naive, Auto,
	}
	engines := []struct {
		name string
		opts []EngineOption
	}{
		{"default", []EngineOption{WithParallelism(1)}},
		{"uncached", []EngineOption{WithParallelism(1), WithPlanCache(false), WithClosureCache(-1)}},
	}
	ctx := context.Background()
	var b strings.Builder
	for _, eng := range engines {
		for _, entry := range corpus {
			e := New(eng.opts...)
			if err := e.LoadProgram(entry.program); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadFacts(entry.facts); err != nil {
				t.Fatal(err)
			}
			for _, query := range entry.queries {
				for _, s := range strategies {
					res, err := e.Query(query, WithStrategy(s))
					fmt.Fprintf(&b, "%s %s %s [%s] Query: %s\n", eng.name, entry.name, query, s, renderOutcome(res, err))
					p, err := e.Prepare(query, WithStrategy(s))
					if err != nil {
						t.Fatalf("%s [%s]: Prepare: %v", query, s, err)
					}
					res, err = p.Run(ctx, queryConsts(t, query)...)
					fmt.Fprintf(&b, "%s %s %s [%s] Run: %s\n", eng.name, entry.name, query, s, renderOutcome(res, err))
				}
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(dispatchGoldenPath), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(dispatchGoldenPath))
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("dispatch golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("dispatch golden differs in length: got %d lines, want %d", len(gl), len(wl))
}
