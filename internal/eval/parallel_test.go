package eval

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/faultinject"
)

// parOpts turns on the parallel round machinery unconditionally: eight
// workers and no work-size floor, so even the tiny test programs fan out.
func parOpts() Options {
	return Options{Parallelism: 8, ParallelThreshold: -1}
}

// viewDump renders every IDB relation of a finished view, sorted by
// predicate, in the relations' own sorted Dump format — a canonical string
// two evaluations can be compared by, regardless of insertion order.
func viewDump(t *testing.T, prog *ast.Program, db *database.Database, v *database.Database) string {
	t.Helper()
	var preds []string
	for p := range prog.IDBPreds() {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	var sb strings.Builder
	for _, p := range preds {
		r := v.Relation(p)
		if r == nil {
			fmt.Fprintf(&sb, "%s: <nil>\n", p)
			continue
		}
		fmt.Fprintf(&sb, "%s: %s\n", p, r.Dump(db.Syms))
	}
	return sb.String()
}

// equivPrograms is the seq-vs-parallel corpus: every shape the fixpoint
// handles — linear and nonlinear recursion, mutual recursion, multiple
// strata, negation, cyclic data.
var equivPrograms = []struct {
	name  string
	prog  string
	facts string
}{
	{
		name:  "tc-chain",
		prog:  tcProg,
		facts: `edge(a, b). edge(b, c). edge(c, d). edge(d, e).`,
	},
	{
		name:  "tc-cycle",
		prog:  tcProg,
		facts: `edge(a, b). edge(b, c). edge(c, a). edge(c, d).`,
	},
	{
		name: "buys-example11",
		prog: `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`,
		facts: `
friend(tom, dick). friend(dick, harry). friend(sue, tom).
idol(tom, harry).
perfectFor(harry, radio). perfectFor(dick, tv). perfectFor(alice, car).
`,
	},
	{
		name: "mutual-recursion",
		prog: `
even(X) :- zero(X).
even(Y) :- odd(X) & succ(X, Y).
odd(Y) :- even(X) & succ(X, Y).
`,
		facts: `
zero(n0).
succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4). succ(n4, n5).
`,
	},
	{
		name: "nonlinear",
		prog: `
t(X, Y) :- t(X, W) & t(W, Y).
t(X, Y) :- edge(X, Y).
`,
		facts: `edge(a, b). edge(b, c). edge(c, d). edge(d, a).`,
	},
	{
		name: "negation-strata",
		prog: `
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
blocked(X) :- node(X) & not reach(X).
`,
		facts: `start(a). edge(a, b). edge(c, d). edge(d, c).`,
	},
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range equivPrograms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := mustProgram(t, tc.prog)
			db := database.New()
			mustLoad(t, db, tc.facts)

			seqView, err := Run(prog, db, Options{})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			parView, err := Run(prog, db, parOpts())
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			seq := viewDump(t, prog, db, seqView)
			par := viewDump(t, prog, db, parView)
			if seq != par {
				t.Errorf("parallel view differs from sequential:\nseq:\n%s\npar:\n%s", seq, par)
			}
		})
	}
}

func TestParallelMatchesSequentialNaive(t *testing.T) {
	for _, tc := range equivPrograms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := mustProgram(t, tc.prog)
			db := database.New()
			mustLoad(t, db, tc.facts)

			seqView, err := Run(prog, db, Options{Naive: true})
			if err != nil {
				t.Fatalf("sequential naive: %v", err)
			}
			opts := parOpts()
			opts.Naive = true
			parView, err := Run(prog, db, opts)
			if err != nil {
				t.Fatalf("parallel naive: %v", err)
			}
			seq := viewDump(t, prog, db, seqView)
			par := viewDump(t, prog, db, parView)
			if seq != par {
				t.Errorf("parallel naive view differs:\nseq:\n%s\npar:\n%s", seq, par)
			}
		})
	}
}

// TestParallelMatchesSequentialRandomGraph crosses the 4096-tuple default
// threshold path too: with Parallelism set but ParallelThreshold left at
// the default, the small early rounds stay sequential and the large middle
// rounds fan out, and the result must still be identical.
func TestParallelMatchesSequentialRandomGraph(t *testing.T) {
	prog := mustProgram(t, `
path(X, Y) :- e(X, W) & path(W, Y).
path(X, Y) :- e(X, Y).
`)
	db := database.New()
	datagen.RandomGraph(db, "e", "v", 80, 160, 7)

	seqView, err := Run(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := seqView.Relation("path").Dump(db.Syms)
	for _, opts := range []Options{
		{Parallelism: 4},                        // default threshold
		{Parallelism: 4, ParallelThreshold: -1}, // always parallel
	} {
		parView, err := Run(prog, db, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if got := parView.Relation("path").Dump(db.Syms); got != want {
			t.Errorf("opts %+v: path differs from sequential", opts)
		}
	}
}

// bigTCSetup returns a workload large enough that budget aborts and faults
// fire mid-fixpoint rather than before the first parallel round.
func bigTCSetup(t *testing.T) (*ast.Program, *database.Database) {
	t.Helper()
	prog := mustProgram(t, `
path(X, Y) :- e(X, W) & path(W, Y).
path(X, Y) :- e(X, Y).
`)
	db := database.New()
	datagen.RandomGraph(db, "e", "v", 120, 240, 11)
	return prog, db
}

func TestParallelBudgetAbortMatchesSequential(t *testing.T) {
	prog, db := bigTCSetup(t)
	for _, limits := range []budget.Limits{
		{MaxTuples: 10},
		{MaxRounds: 2},
		{MaxBytes: 64},
	} {
		limits := limits
		t.Run(fmt.Sprintf("%+v", limits), func(t *testing.T) {
			seqOpts := Options{Budget: budget.New(context.Background(), limits)}
			_, seqErr := Run(prog, db, seqOpts)
			parOpts := parOpts()
			parOpts.Budget = budget.New(context.Background(), limits)
			_, parErr := Run(prog, db, parOpts)
			if !errors.Is(seqErr, budget.ErrBudget) {
				t.Fatalf("sequential err = %v, want budget abort", seqErr)
			}
			if !errors.Is(parErr, budget.ErrBudget) {
				t.Fatalf("parallel err = %v, want budget abort", parErr)
			}
			var seqRE, parRE *budget.ResourceError
			if !errors.As(seqErr, &seqRE) || !errors.As(parErr, &parRE) {
				t.Fatalf("errors are not *ResourceError: %v / %v", seqErr, parErr)
			}
			if seqRE.Limit != parRE.Limit {
				t.Errorf("limit kinds differ: sequential %s, parallel %s", seqRE.Limit, parRE.Limit)
			}
		})
	}
}

func TestParallelFaultInjectionSurfacesCleanly(t *testing.T) {
	prog, db := bigTCSetup(t)
	boom := errors.New("injected storage fault")
	// Fire on several different ticks so the fault lands in different
	// phases of the parallel round (workers, merger, round boundary).
	for _, at := range []int{1, 10, 500} {
		at := at
		t.Run(fmt.Sprintf("at-%d", at), func(t *testing.T) {
			inj := faultinject.FailAt(at, boom)
			opts := parOpts()
			opts.Budget = budget.NewProbed(context.Background(), budget.Limits{}, inj.Probe())
			before := db.NumTuples()
			_, err := Run(prog, db, opts)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want injected fault", err)
			}
			if db.NumTuples() != before {
				t.Errorf("database mutated by aborted run: %d -> %d tuples", before, db.NumTuples())
			}
		})
	}
}

func TestParallelCancellationMidRun(t *testing.T) {
	prog, db := bigTCSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	opts := parOpts()
	opts.Budget = budget.New(ctx, budget.Limits{})
	_, err := Run(prog, db, opts)
	// The run either finished before the cancel landed (tiny machines) or
	// must surface the cancellation as a budget abort.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (or nil if the run won the race)", err)
	}
}
