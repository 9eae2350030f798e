package core

import (
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
)

// AnswerBatch evaluates many selection queries of one form — same
// predicate, constants at the same positions — in a single seeded run of
// the Figure 2 schema, and returns one answer relation per query, aligned
// with qs. With more than one seed, the seed index rides as the first tag
// column through both phases, so every carry loop, every class closure,
// and the support fixpoint run once for the whole batch; per-seed answers
// are routed out by tag at delivery. A lone seed carries no index column,
// so a single query's carries are exactly the untagged relations of
// Figure 2. Answers are identical to len(qs) separate Answer calls.
func AnswerBatch(prog *ast.Program, db *database.Database, qs []ast.Atom, opts EvalOptions) (_ []*rel.Relation, err error) {
	defer budget.Guard(&err)
	if len(qs) == 0 {
		return nil, nil
	}
	a := opts.Analysis
	if a == nil {
		var err error
		a, err = AnalyzeOpts(prog, qs[0].Pred, Options{AllowDisconnected: opts.AllowDisconnected})
		if err != nil {
			return nil, err
		}
	}
	sel, err := a.Classify(qs[0])
	if err != nil {
		return nil, err
	}
	if sel.Kind == SelNone {
		return nil, ErrNoSelection
	}
	for _, q := range qs[1:] {
		si, err := a.Classify(q)
		if err != nil {
			return nil, err
		}
		if q.Pred != qs[0].Pred || !equalInts(si.ConstPos, sel.ConstPos) {
			return nil, fmt.Errorf("core: batch mixes query forms: %s vs %s", q, qs[0])
		}
	}

	// Materialize the IDB predicates t's definition depends on (they do
	// not depend back on t, so a single pass suffices); they then act as
	// base relations for the schema. Rules for predicates t does not use
	// are irrelevant to the query and skipped.
	base, err := MaterializeSupportOpts(prog, db, qs[0].Pred, eval.Options{
		Collector:         opts.Collector,
		Budget:            opts.Budget,
		Parallelism:       opts.Parallelism,
		ParallelThreshold: opts.ParallelThreshold,
	})
	if err != nil {
		return nil, err
	}

	e := newEvaluator(a, base, qs[0].Pred, opts)
	sinks := make([]*eval.AnswerSink, len(qs))
	for i, q := range qs {
		sinks[i] = eval.NewAnswerSink(q, base.Syms)
	}

	switch sel.Kind {
	case SelPers:
		if err := e.batchFull(qs, sel.PersPos, -1, sinks); err != nil {
			return nil, err
		}
	case SelFullClass:
		if err := e.batchFull(qs, a.Classes[sel.Driver].Cols, sel.Driver, sinks); err != nil {
			return nil, err
		}
	case SelPartial:
		if err := e.batchPartial(qs, sel, sinks); err != nil {
			return nil, err
		}
	}

	out := make([]*rel.Relation, len(qs))
	ansLen := 0
	for i, s := range sinks {
		out[i] = s.Result()
		ansLen += out[i].Len()
	}
	opts.Collector.Observe("ans", ansLen)
	return out, nil
}

// seedIndexWidth is the number of seed-index tag columns a batch's runs
// carry: none for a single seed, whose run is Figure 2 verbatim, and one
// otherwise.
func seedIndexWidth(qs []ast.Atom) int {
	if len(qs) == 1 {
		return 0
	}
	return 1
}

// seedRow builds seed i's row in buf: the seed index when idxW is 1, then
// vals. Insert clones, so callers reuse buf across seeds.
func seedRow(buf rel.Tuple, idxW, i int, vals rel.Tuple) rel.Tuple {
	buf = buf[:0]
	if idxW > 0 {
		buf = append(buf, rel.Value(i))
	}
	return append(buf, vals...)
}

// batchFull runs the full-selection schema (SelPers or SelFullClass) for
// every query at once: seeds are (seed index, consts...) rows, driver is
// the persistent columns or the driver class's columns.
func (e *evaluator) batchFull(qs []ast.Atom, driverCols []int, driver int, sinks []*eval.AnswerSink) error {
	intern := e.db.Syms.Intern
	idxW := seedIndexWidth(qs)
	seeds := rel.New(idxW + len(driverCols))
	driverVals := make([]rel.Tuple, len(qs))
	var row rel.Tuple
	for i, q := range qs {
		driverVals[i] = constsAt(q, driverCols, intern)
		row = seedRow(row, idxW, i, driverVals[i])
		seeds.Insert(row)
	}
	res, outCols, err := e.run(driverCols, driver, driver, seeds, idxW)
	if err != nil {
		return err
	}
	e.deliverBatch(res, idxW, nil, driverCols, driverVals, outCols, sinks)
	return nil
}

// batchPartial evaluates a partial selection for every query at once, as
// the union of full selections of Lemma 2.1: the t_part branch (no
// driver-class applications; the bound columns act as persistent) plus,
// for every rule of the driver class, a t_full branch seeded through that
// rule's nonrecursive conjunction, with the unbound driver-class head
// columns carried as tags after the seed index.
func (e *evaluator) batchPartial(qs []ast.Atom, sel Selection, sinks []*eval.AnswerSink) error {
	intern := e.db.Syms.Intern
	src := conj.DBSource(e.db.Relation)
	cls := &e.a.Classes[sel.Driver]
	isConst := make(map[int]bool)
	for _, p := range sel.ConstPos {
		isConst[p] = true
	}
	var boundCols, freeCols []int
	for _, p := range cls.Cols {
		if isConst[p] {
			boundCols = append(boundCols, p)
		} else {
			freeCols = append(freeCols, p)
		}
	}
	idxW := seedIndexWidth(qs)

	// Branch A (t_part): zero applications of the driver class.
	seedsA := rel.New(idxW + len(boundCols))
	boundVals := make([]rel.Tuple, len(qs))
	var row rel.Tuple
	for i, q := range qs {
		boundVals[i] = constsAt(q, boundCols, intern)
		row = seedRow(row, idxW, i, boundVals[i])
		seedsA.Insert(row)
	}
	resA, outColsA, err := e.run(boundCols, -1, sel.Driver, seedsA, idxW)
	if err != nil {
		return err
	}
	e.deliverBatch(resA, idxW, nil, boundCols, boundVals, outColsA, sinks)

	// Branch B (t_full): at least one application of the driver class.
	// The first application is made here, per seed, through each rule's
	// a_1j with the bound head columns fixed to the seed's constants; the
	// resulting unbound head-column values become the tag, and the
	// body-column values seed carry_1.
	tagW := idxW + len(freeCols)
	seedsB := rel.New(tagW + len(cls.Cols))
	boundHead := headVarsAt(boundCols)
	freeHead := headVarsAt(freeCols)
	for _, r := range cls.Rules {
		outVars := append(append([]string{}, freeHead...), r.BodyVars...)
		tr, err := conj.NewTransition(r.Conj, boundHead, outVars, intern)
		if err != nil {
			return fmt.Errorf("core: rule %s: %w", r.Rule, err)
		}
		tr.SetTick(e.bud.TickFunc())
		run := tr.NewRunner()
		for i := range qs {
			run.Apply(src, boundVals[i], func(out rel.Tuple) {
				row = seedRow(row, idxW, i, out)
				seedsB.Insert(row)
			})
		}
	}
	resB, outColsB, err := e.run(cls.Cols, sel.Driver, sel.Driver, seedsB, tagW)
	if err != nil {
		return err
	}
	// Driver values: constants at the bound positions; the free positions
	// are placeholders overwritten by the tag in deliverBatch.
	driverVals := make([]rel.Tuple, len(qs))
	for i, q := range qs {
		dv := make(rel.Tuple, len(cls.Cols))
		for j, p := range cls.Cols {
			if isConst[p] {
				dv[j] = intern(q.Args[p].Name)
			}
		}
		driverVals[i] = dv
	}
	e.deliverBatch(resB, idxW, freeCols, cls.Cols, driverVals, outColsB, sinks)
	return nil
}

// deliverBatch assembles full-arity tuples from a run's result and routes
// each to its seed's sink. Result rows are idxW seed-index columns (none:
// seed 0), then one value per tagCols, then the output columns;
// driverCols take the seed's driverVals, with free positions, if any,
// overwritten by the tag.
func (e *evaluator) deliverBatch(res *rel.Relation, idxW int, tagCols []int, driverCols []int, driverVals []rel.Tuple, outCols []int, sinks []*eval.AnswerSink) {
	tagW := idxW + len(tagCols)
	full := make(rel.Tuple, e.a.Arity)
	for _, t := range res.Rows() {
		i := 0
		if idxW > 0 {
			i = int(t[0])
		}
		for j, p := range driverCols {
			full[p] = driverVals[i][j]
		}
		for j, p := range tagCols {
			full[p] = t[idxW+j]
		}
		for j, p := range outCols {
			full[p] = t[tagW+j]
		}
		sinks[i].Add(full)
	}
}
