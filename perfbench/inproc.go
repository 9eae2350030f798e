package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sepdl"
	"sepdl/internal/ast"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/magic"
	"sepdl/internal/parser"
	"sepdl/internal/plancache"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

const (
	// callers is the closed loop's concurrency: one goroutine issuing its
	// next query only when the previous one returned. A second caller
	// would saturate a 2-core machine, leaving the garbage collector and
	// every other process to compete with the callers, which spreads the
	// latency medians more from run to run.
	callers = 1
	// setupReps is how many times a run sets the engine up, setupGap
	// apart; setup_s is their median. A set-up takes milliseconds, and on
	// a shared machine stretches of consecutive set-ups run fast or slow
	// together, so the median needs many set-ups spread over time.
	setupReps = 60
	setupGap  = 20 * time.Millisecond
	// probeKeys is how many distinct selections the traced run replays
	// through the layer packages directly; paperKeys of them also run
	// under Magic Sets to reproduce the paper's comparison.
	probeKeys = 24
	paperKeys = 3
)

// reads is what a closed loop of in-process queries measured.
type reads struct {
	start     time.Time // when the stretch began
	latMS     []float64 // caller-observed latency of each correct read
	endS      []float64 // when each correct read returned, in seconds from start
	evalMS    []float64 // Stats.Duration
	overUS    []float64 // engine call minus Stats.Duration
	peak      []float64 // Stats.MaxRelationSize
	attempted int
	failed    int
	wrong     []string
	strategy  map[sepdl.Strategy]int
	elapsed   time.Duration
	cost      cost
}

func (r *reads) merge(o *reads) {
	r.latMS = append(r.latMS, o.latMS...)
	r.endS = append(r.endS, o.endS...)
	r.evalMS = append(r.evalMS, o.evalMS...)
	r.overUS = append(r.overUS, o.overUS...)
	r.peak = append(r.peak, o.peak...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong = append(r.wrong, o.wrong...)
	for s, n := range o.strategy {
		r.strategy[s] += n
	}
}

// read runs one selection through Engine.QueryCtx and Result.Rows,
// checks it against the oracle, and records it into r.
func read(eng *sepdl.Engine, d *dataset, k string, tr *tracer, r *reads) {
	req := tr.request()
	root := tr.start(req, nil, "read")
	t0 := time.Now()
	call := tr.start(req, root, "engine.QueryCtx")
	res, err := eng.QueryCtx(context.Background(), d.query(k))
	tr.finish(call)
	callD := time.Since(t0)
	var rows [][]string
	if err == nil {
		rs := tr.start(req, root, "result.Rows")
		rows = res.Rows()
		tr.finish(rs)
	}
	lat := time.Since(t0)
	tr.finish(root)
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	if msg := checkRows(rows, d.want[k]); msg != "" {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %s", d.query(k), msg))
		return
	}
	r.latMS = append(r.latMS, ms(lat))
	r.endS = append(r.endS, time.Since(r.start).Seconds())
	r.evalMS = append(r.evalMS, ms(res.Stats.Duration))
	r.overUS = append(r.overUS, us(callD-res.Stats.Duration))
	r.peak = append(r.peak, float64(res.Stats.MaxRelationSize))
	r.strategy[res.Stats.Strategy]++
}

// closedLoop runs callers goroutines for dur, each cycling through the
// key sequence from a shared cursor.
func closedLoop(eng *sepdl.Engine, d *dataset, dur time.Duration, cursor *atomic.Int64, tr *tracer) *reads {
	total := &reads{strategy: map[sepdl.Strategy]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := readUsage()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := &reads{start: before.at, strategy: map[sepdl.Strategy]int{}}
			for time.Since(before.at) < dur {
				i := cursor.Add(1) - 1
				read(eng, d, d.keys[i%int64(len(d.keys))], tr, mine)
			}
			mu.Lock()
			total.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	after := readUsage()
	total.elapsed = after.at.Sub(before.at)
	total.cost = costBetween(before, after, total.attempted)
	return total
}

// setUpEngine builds an in-RAM engine holding d's program and facts, and
// prepares the workload's query form, which compiles its plan.
func setUpEngine(d *dataset) (*sepdl.Engine, error) {
	eng := sepdl.New()
	if err := eng.LoadProgram(d.program); err != nil {
		return nil, fmt.Errorf("loading program: %w", err)
	}
	if err := eng.LoadFacts(d.facts); err != nil {
		return nil, fmt.Errorf("loading facts: %w", err)
	}
	if _, err := eng.Prepare(d.form); err != nil {
		return nil, fmt.Errorf("preparing %s: %w", d.form, err)
	}
	return eng, nil
}

// timeSetups runs setUp setupReps times, setupGap apart and each from a
// freshly collected heap, and returns the last result and the median
// process CPU time of one set-up in seconds; the median wall time goes
// into a note. CPU time, because a durable set-up waits on fsyncs whose
// latency follows whatever else the host's disk is doing: on a 2-vCPU VM,
// serve-rw's wall median moved between 12 and 39 ms across ten runs of one
// build, while the work a set-up does, which is what a change moving work
// into set-up adds to, is its CPU time. Every earlier result is handed to
// drop, untimed; on an error nothing is left to drop.
func timeSetups[T any](out *outcome, setUp func() (T, error), drop func(T) error) (T, float64, error) {
	var cur, none T
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && drop != nil {
			if err := drop(cur); err != nil {
				return none, 0, err
			}
		}
		runtime.GC()
		time.Sleep(setupGap)
		c0, t0 := processCPU(), time.Now()
		v, err := setUp()
		if err != nil {
			return none, 0, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (processCPU() - c0).Seconds())
		cur = v
	}
	out.note("set-up: median %.2f ms CPU, %.2f ms wall over %d set-ups", 1e3*median(cpu), 1e3*median(wall), setupReps)
	return cur, median(cpu), nil
}

// distinctKeys returns the key sequence's distinct constants in order of
// first appearance.
func distinctKeys(keys []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// warmUp queries every distinct key until a whole pass needs no closure
// computed afresh, so the plan and closure caches are hot before timing.
// A workload whose strategy never touches the closure cache only warms
// the plan cache and the runtime with a short prefix.
func warmUp(eng *sepdl.Engine, d *dataset) *reads {
	r := &reads{strategy: map[sepdl.Strategy]int{}}
	keys := distinctKeys(d.keys)
	for pass := 0; pass < 4; pass++ {
		before := eng.Stats()
		for i, k := range keys {
			read(eng, d, k, nil, r)
			if s := eng.Stats(); i >= 20 && s.ClosureCacheHits+s.ClosureCacheMisses == 0 {
				return r
			}
		}
		if eng.Stats().ClosureCacheMisses == before.ClosureCacheMisses {
			return r
		}
	}
	return r
}

// runInProcess is the closed-loop workload over an in-RAM engine, used by
// separable-select and magic-fixpoint.
func runInProcess(cfg runConfig, d *dataset, probe func(*dataset, *sepdl.Engine, *tracer, *outcome) error) (*outcome, error) {
	out := newOutcome()
	eng, setupS, err := timeSetups(out, func() (*sepdl.Engine, error) { return setUpEngine(d) }, nil)
	if err != nil {
		return nil, err
	}
	answers := 0
	for _, rows := range d.want {
		answers += len(rows)
	}
	out.note("oracle: %d distinct selections, %.1f answers each on average", len(d.want), float64(answers)/float64(len(d.want)))
	warm := warmUp(eng, d)
	out.add(warm, false)
	out.note("warm-up: %d queries", warm.attempted)

	var cursor atomic.Int64
	dur := cfg.duration()
	if !cfg.trace {
		r := closedLoop(eng, d, dur, &cursor, nil)
		out.add(r, true)
		out.e2e(r, setupS)
		return out, nil
	}

	// The traced run measures half its time untraced and half traced; the
	// difference between the two halves is the tracing overhead.
	plain := closedLoop(eng, d, dur/2, &cursor, nil)
	out.add(plain, true)
	tr := newTracer()
	before := eng.Stats()
	traced := closedLoop(eng, d, dur/2, &cursor, tr)
	after := eng.Stats()
	out.add(traced, true)
	out.tr = tr
	out.layerReads(plain, traced, tr, before, after)
	return out, probe(d, eng, tr, out)
}

// programAndDB builds the layer packages' own inputs from d, for the
// traced run's direct calls into core and magic.
func programAndDB(d *dataset) (*ast.Program, *database.Database, error) {
	prog, err := parser.Program(d.program)
	if err != nil {
		return nil, nil, err
	}
	facts, err := parser.Facts(d.facts)
	if err != nil {
		return nil, nil, err
	}
	db := database.New()
	if err := db.Load(facts); err != nil {
		return nil, nil, err
	}
	return prog, db, nil
}

func relRows(r *rel.Relation, db *database.Database) [][]string {
	var out [][]string
	for _, t := range r.Rows() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = db.Syms.Name(v)
		}
		out = append(out, row)
	}
	return out
}

// probeParse times parser.Query on each probe key.
func probeParse(d *dataset, keys []string, tr *tracer, out *outcome) error {
	for _, k := range keys {
		var err error
		tr.timed(tr.request(), nil, "parser.Query", func() { _, err = parser.Query(d.query(k)) })
		if err != nil {
			return err
		}
	}
	out.set("parser.query_us", tr.medianUS("parser.Query"))
	return nil
}

// probeCore replays probe selections through core directly: the
// separability analysis, support materialization, and Figure 2's
// evaluation without and with a warmed closure cache. It also reproduces
// the paper's comparison on a few of them by asking the engine for Magic
// Sets explicitly.
func probeCore(d *dataset, eng *sepdl.Engine, tr *tracer, out *outcome) error {
	keys := distinctKeys(d.keys)[:probeKeys]
	if err := probeParse(d, keys, tr, out); err != nil {
		return err
	}
	prog, db, err := programAndDB(d)
	if err != nil {
		return err
	}
	closures := plancache.NewClosures(0)
	scope := plancache.Scope{ProgRev: 1, DBRev: 1}
	var iters, inserted, peak, coldMS, warmMS []float64
	check := func(q ast.Atom, k string, ans *rel.Relation, err error) error {
		if err != nil {
			return fmt.Errorf("core.Answer %s: %w", q, err)
		}
		if msg := checkRows(relRows(ans, db), d.want[k]); msg != "" {
			out.wrong(fmt.Sprintf("core.Answer %s: %s", q, msg))
		}
		return nil
	}
	for _, k := range keys {
		q, err := parser.Query(d.query(k))
		if err != nil {
			return err
		}
		req := tr.request()
		root := tr.start(req, nil, "probe.core")
		var a *core.Analysis
		tr.timed(req, root, "core.AnalyzeOpts", func() { a, err = core.AnalyzeOpts(prog, q.Pred, core.Options{}) })
		if err != nil {
			return err
		}
		tr.timed(req, root, "core.MaterializeSupport", func() { _, err = core.MaterializeSupport(prog, db, q.Pred, nil, nil) })
		if err != nil {
			return err
		}
		col := stats.New()
		var ans *rel.Relation
		cold := tr.timed(req, root, "core.Answer", func() {
			ans, err = core.Answer(prog, db, q, core.EvalOptions{Collector: col, Analysis: a})
		})
		if err := check(q, k, ans, err); err != nil {
			return err
		}
		// The untimed call fills the closure cache for this selection.
		warmOpts := core.EvalOptions{Analysis: a, Closures: closures, CacheScope: scope}
		ans, err = core.Answer(prog, db, q, warmOpts)
		if err := check(q, k, ans, err); err != nil {
			return err
		}
		warm := tr.timed(req, root, "core.Answer.warm", func() { ans, err = core.Answer(prog, db, q, warmOpts) })
		if err := check(q, k, ans, err); err != nil {
			return err
		}
		tr.finish(root)
		_, size := col.MaxRelation()
		iters = append(iters, float64(col.Iterations))
		inserted = append(inserted, float64(col.Inserted))
		peak = append(peak, float64(size))
		coldMS = append(coldMS, ms(cold))
		warmMS = append(warmMS, ms(warm))
	}
	out.set("core.analyze_ms", tr.medianMS("core.AnalyzeOpts"))
	out.set("core.support_ms", tr.medianMS("core.MaterializeSupport"))
	out.set("core.answer_ms", median(coldMS))
	out.set("core.answer_warm_ms", median(warmMS))
	out.set("core.closures_ms", median(coldMS)-median(warmMS))
	out.set("core.iterations", mean(iters))
	out.set("core.inserted", mean(inserted))
	out.set("core.peak_tuples", mean(peak))
	return probePaper(d, eng, keys[:paperKeys], peak[:paperKeys], coldMS[:paperKeys], tr, out)
}

// probePaper runs the first probe selections under Magic Sets through the
// engine and sets the paper's Definition 4.2 measure beside Separable's on
// the same selections: Magic Sets materializes Ω(n²) buys tuples where
// Figure 2 keeps O(n).
func probePaper(d *dataset, eng *sepdl.Engine, keys []string, sepPeak, sepMS []float64, tr *tracer, out *outcome) error {
	var magicPeak, magicMS []float64
	for _, k := range keys {
		req := tr.request()
		var res *sepdl.Result
		var err error
		dur := tr.timed(req, nil, "paper.engine.QueryCtx.magic", func() {
			res, err = eng.QueryCtx(context.Background(), d.query(k), sepdl.WithStrategy(sepdl.MagicSets))
		})
		if err != nil {
			return fmt.Errorf("magic sets on %s: %w", d.query(k), err)
		}
		if msg := checkRows(res.Rows(), d.want[k]); msg != "" {
			out.wrong(fmt.Sprintf("magic sets %s: %s", d.query(k), msg))
		}
		magicPeak = append(magicPeak, float64(res.Stats.MaxRelationSize))
		magicMS = append(magicMS, ms(dur))
	}
	out.set("paper.selections", float64(len(keys)))
	out.set("paper.magic_peak_tuples", mean(magicPeak))
	out.set("paper.separable_peak_tuples", mean(sepPeak))
	out.set("paper.magic_ms", mean(magicMS))
	out.set("paper.separable_ms", mean(sepMS))
	out.note("paper: %d selections at n=%d: Magic Sets peak %.0f tuples in %.1f ms, Separable %.0f tuples in %.2f ms",
		len(keys), buysPeople, mean(magicPeak), mean(magicMS), mean(sepPeak), mean(sepMS))
	return nil
}

// probeMagic replays probe selections through the magic package directly:
// compiling the rewrite template and answering with it.
func probeMagic(d *dataset, eng *sepdl.Engine, tr *tracer, out *outcome) error {
	keys := distinctKeys(d.keys)[:probeKeys]
	if err := probeParse(d, keys, tr, out); err != nil {
		return err
	}
	prog, db, err := programAndDB(d)
	if err != nil {
		return err
	}
	var rounds, inserted, interBytes, peak []float64
	for _, k := range keys {
		q, err := parser.Query(d.query(k))
		if err != nil {
			return err
		}
		req := tr.request()
		root := tr.start(req, nil, "probe.magic")
		var tpl *magic.Template
		tr.timed(req, root, "magic.NewTemplate", func() { tpl, err = magic.NewTemplate(prog, q, false) })
		if err != nil {
			return err
		}
		col := stats.New()
		var ans *rel.Relation
		tr.timed(req, root, "magic.Answer", func() {
			ans, err = magic.Answer(prog, db, q, magic.Options{Collector: col, Template: tpl})
		})
		tr.finish(root)
		if err != nil {
			return err
		}
		if msg := checkRows(relRows(ans, db), d.want[k]); msg != "" {
			out.wrong(fmt.Sprintf("magic.Answer %s: %s", q, msg))
		}
		_, size := col.MaxRelation()
		rounds = append(rounds, float64(col.Iterations))
		inserted = append(inserted, float64(col.Inserted))
		interBytes = append(interBytes, float64(col.PeakIntermediate()))
		peak = append(peak, float64(size))
	}
	out.set("magic.template_ms", tr.medianMS("magic.NewTemplate"))
	out.set("magic.answer_ms", tr.medianMS("magic.Answer"))
	out.set("eval.rounds", mean(rounds))
	out.set("eval.inserted", mean(inserted))
	out.set("eval.peak_intermediate_bytes", mean(interBytes))
	out.set("magic.peak_tuples", mean(peak))
	return nil
}
