package sepdl

import (
	"fmt"
	"testing"
	"time"

	"sepdl/internal/datagen"
	"sepdl/internal/leakcheck"
)

// coldGraphFacts builds a dense-ish layered edge set big enough to
// outgrow a small memtable budget several times over.
func coldGraphFacts(n int) [][]string {
	var out [][]string
	for i := 0; i < n; i++ {
		out = append(out, []string{"edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+1)%n)})
		if i%3 == 0 {
			out = append(out, []string{"edge", fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", (i+7)%n)})
		}
	}
	return out
}

const coldTCProgram = `
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`

// multiClassChainFacts is datagen.MultiClassDB(n, c) as fact tuples: one
// chain of length n per class and an exit tuple at the chain ends.
func multiClassChainFacts(n, c int) [][]string {
	var out [][]string
	exit := []string{"t0"}
	for i := 1; i <= c; i++ {
		pred, prefix := datagen.Name("e", i), datagen.MultiClassPrefix(i)
		for j := 1; j < n; j++ {
			out = append(out, []string{pred, datagen.Name(prefix, j), datagen.Name(prefix, j+1)})
		}
		exit = append(exit, datagen.Name(prefix, n))
	}
	return append(out, exit)
}

// TestColdStorageEquivalence: a durable engine whose dataset outgrows a
// tiny memtable budget — forcing flushes into segment files and rebases
// onto the cold tier mid-ingest — must answer byte-identically to a fully
// resident oracle under every strategy: live, after recovery with a block
// cache far smaller than the data, with no block cache at all, and
// replayed fully into RAM. It covers transitive closure and a two-class
// separable recursion.
func TestColdStorageEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		program string
		facts   [][]string
		queries []string
	}{
		{"tc", coldTCProgram, coldGraphFacts(96), []string{
			"path(n000, Y)?",
			"path(X, n005)?",
			"path(n010, n011)?",
			"edge(n000, Y)?",
			"path(X, Y)?",
		}},
		{"separable", datagen.MultiClassProgram(2).String(), multiClassChainFacts(20, 2), []string{
			datagen.MultiClassQuery(2),
			"t(X, c2v1)?",
			"t(c1v3, c2v5)?",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkColdStorageEquivalence(t, tc.program, tc.facts, tc.queries)
		})
	}
}

func checkColdStorageEquivalence(t *testing.T, program string, facts [][]string, queries []string) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir,
		WithMemtableBytes(2<<10),   // ~2 KB: a few dozen tuples per flush
		WithBlockCacheBytes(8<<10), // much smaller than the dataset
		WithCheckpointBytes(-1),    // isolate the memtable trigger
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	oracle := New()
	if err := oracle.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
		if err := oracle.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}

	// The memtable trigger runs checkpoints in the background; wait for
	// at least one, then force a final flush so the tail is cold too.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().WAL.Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if e.Stats().WAL.Checkpoints == 0 {
		t.Fatal("memtable budget never triggered a checkpoint")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats().WAL.Segment
	if st.SegmentFiles == 0 || st.SegmentBuilds == 0 || st.SegmentTuples == 0 {
		t.Fatalf("no segments built: %+v", st)
	}

	assertEnginesAgree(t, "live cold vs resident", e, oracle, queries)

	// Cold reads must actually stream from disk: the block cache sees
	// traffic once queries touch segment-resident tuples.
	if _, _, bytesRead := cacheTraffic(e); bytesRead == 0 {
		t.Fatal("queries never read a segment block — cold tier unused")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover cold and compare again.
	re, err := Open(dir, WithMemtableBytes(2<<10), WithBlockCacheBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertEnginesAgree(t, "recovered cold vs resident", re, oracle, queries)

	// Disk-cold: with block retention off, every cold read goes to the
	// segment files.
	nocache, err := Open(dir, WithBlockCacheBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer nocache.Close()
	assertEnginesAgree(t, "recovered with no block cache vs resident", nocache, oracle, queries)

	// And the explicit in-RAM oracle mode: same directory, cold storage
	// off, everything replayed into RAM.
	ram, err := Open(dir, WithColdStorage(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	assertEnginesAgree(t, "recovered cold vs coldOff recovery", re, ram, queries)
}

// cacheTraffic returns the engine store's block-cache counters.
func cacheTraffic(e *Engine) (hits, misses, bytesRead uint64) {
	s := e.Stats().WAL.Segment
	return s.BlockCacheHits, s.BlockCacheMisses, s.SegmentBytesRead
}

// TestColdStorageWritesAfterRebase: writes landing between checkpoints
// stay queryable from the overlay while older tuples serve cold.
func TestColdStorageWritesAfterRebase(t *testing.T) {
	leakcheck.CheckResources(t)
	dir := t.TempDir()
	e, err := Open(dir, WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadProgram(coldTCProgram); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint write: overlay on top of the cold base.
	if err := e.AddFact("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("path(a, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "{(b) (c)}" {
		t.Fatalf("mixed-tier query = %q", got)
	}
	// Second checkpoint compacts overlay + cold into one new segment.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err = e.Query("path(a, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "{(b) (c)}" {
		t.Fatalf("post-compaction query = %q", got)
	}
}
