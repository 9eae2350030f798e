package sepdl

import (
	"context"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/parser"
)

// Prepared is a query form compiled once and executed many times with
// fresh selection constants — the paper's compile-once/execute-many
// promise as an API. A Prepared is an immutable handle, safe for
// concurrent use; each Run evaluates against the snapshot current at that
// call, so a Prepared never serves stale answers after writes (the caches
// underneath are revision-keyed and simply recompile or refill).
type Prepared struct {
	e        *Engine
	form     ast.Atom
	text     string
	paramPos []int
	cfg      queryConfig
}

// Prepare parses queryForm once and returns a handle that binds fresh
// constants into the form's cached plan per execution. The constants in
// queryForm are placeholders: their positions become Run's parameters, in
// argument order, and their values only warm the plan cache. For example
// Prepare("buys(tom, Y)?") takes one constant per Run, at position 0.
// Options are captured now and apply to every Run and RunBatch.
func (e *Engine) Prepare(queryForm string, opts ...QueryOption) (*Prepared, error) {
	cfg := e.newQueryConfig(opts)
	q, err := parser.Query(queryForm)
	if err != nil {
		return nil, err
	}
	var pos []int
	for i, t := range q.Args {
		if !t.IsVar() {
			pos = append(pos, i)
		}
	}
	p := &Prepared{e: e, form: q, text: queryForm, paramPos: pos, cfg: cfg}
	// Warm the current revision's plan cache so the first Run is already a
	// hit; later program revisions recompile on first use automatically.
	st := e.progState()
	if st.prog.IDBPreds()[q.Pred] && !e.planCacheOff {
		st.cachedPlan(q, cfg)
	}
	return p, nil
}

// NumParams returns how many constants each Run takes.
func (p *Prepared) NumParams() int { return len(p.paramPos) }

// bind substitutes consts into the form's parameter positions.
func (p *Prepared) bind(consts []string) (ast.Atom, error) {
	if len(consts) != len(p.paramPos) {
		return ast.Atom{}, fmt.Errorf("sepdl: prepared query %q takes %d constants, got %d", p.text, len(p.paramPos), len(consts))
	}
	args := make([]ast.Term, len(p.form.Args))
	copy(args, p.form.Args)
	for i, pos := range p.paramPos {
		args[pos] = ast.C(consts[i])
	}
	return ast.Atom{Pred: p.form.Pred, Args: args}, nil
}

// Run evaluates the prepared form with the given constants, one per
// placeholder in argument order. Semantics (snapshot isolation, admission,
// budgets, fallback) are exactly Query's; only the plan compilation is
// skipped.
func (p *Prepared) Run(ctx context.Context, consts ...string) (*Result, error) {
	q, err := p.bind(consts)
	if err != nil {
		return nil, err
	}
	return p.e.queryOne(ctx, q, q.String(), p.cfg)
}

// RunBatch evaluates one constant vector per element of constSets in a
// single seeded fixpoint (see QueryBatch), returning one Result per
// vector, aligned with constSets.
func (p *Prepared) RunBatch(ctx context.Context, constSets ...[]string) ([]*Result, error) {
	qs := make([]ast.Atom, len(constSets))
	for i, cs := range constSets {
		q, err := p.bind(cs)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return p.e.queryBatch(ctx, qs, "", p.cfg)
}

// QueryBatch evaluates many queries of one form — same predicate,
// constants at the same positions — in a single seeded fixpoint, sharing
// one snapshot, one admission slot, and one budget across the batch:
// multi-seed driver phases for the Separable strategy, multi-seed magic
// facts for the Magic strategies, one shared fixpoint view for
// SemiNaive/Naive. Results align with queries, and each answer set is
// identical to what Query would return for that element. Per-query
// strategies without a multi-seed form (Counting, HN, Aho-Ullman,
// Tabling) still share the snapshot, slot, and budget, evaluating
// seed-by-seed. Stats on every Result report the whole batch's work, with
// BatchSize = len(queries).
func (e *Engine) QueryBatch(ctx context.Context, queries []string, opts ...QueryOption) ([]*Result, error) {
	cfg := e.newQueryConfig(opts)
	qs := make([]ast.Atom, len(queries))
	for i, s := range queries {
		q, err := parser.Query(s)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return e.queryBatch(ctx, qs, "", cfg)
}
