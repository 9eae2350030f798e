package eval

import (
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/par"
	"sepdl/internal/rel"
)

// DefaultParallelThreshold is the adaptive profit gate's break-even point:
// the estimated number of head-tuple emissions a round must produce before
// fanning out beats the plain loop. Fan-out has a fixed cost (goroutines,
// channel, per-tuple clones into merge batches), and on the small rounds
// that dominate most workloads it loses to the sequential pull loop; 4096
// estimated emissions is comfortably past break-even. The estimate is the
// round's input work (tuples feeding its joins) times the join fan-out
// observed over previous rounds, so a workload whose deltas stay small
// never pays the fan-out tax — and one whose tiny deltas explode through a
// dense join still engages the pool.
const DefaultParallelThreshold = 4096

// mergeBatchSize is how many head tuples a worker buffers before handing
// them to the merger; small enough to keep the merger streaming, large
// enough that channel traffic is not per-tuple.
const mergeBatchSize = 256

// roundTask is one unit of a round's work: evaluate a rule's plan against
// a relation source (the base source, or one with a delta chunk
// substituted at one IDB occurrence).
type roundTask struct {
	cr  *compiledRule
	src conj.RelSource
}

// parRunner is the per-stratum handle on the parallel round machinery;
// nil means the run is sequential. It carries the profit gate's state: an
// exponential moving average of the join fan-out (emissions per input
// tuple) observed over completed rounds.
type parRunner struct {
	workers   int
	threshold int
	fanout    float64
	observed  bool
}

func newParRunner(opts Options) *parRunner {
	if opts.Parallelism <= 1 {
		return nil
	}
	return &parRunner{workers: opts.Parallelism, threshold: opts.ParallelThreshold, fanout: 1}
}

// eligible reports whether a round with the given input work size should
// fan out. A negative threshold forces fan-out (tests use it to drive the
// parallel path on tiny programs); otherwise the profit gate estimates the
// round's emissions as work × the observed fan-out EMA and engages the
// pool only past break-even.
func (pr *parRunner) eligible(work int) bool {
	if pr == nil {
		return false
	}
	if pr.threshold < 0 {
		return true
	}
	return float64(work)*pr.fanout >= DefaultParallelThreshold
}

// observe feeds a completed round's measured fan-out back into the gate's
// EMA. The first observation replaces the neutral prior outright; later
// ones blend 50/50, so the estimate tracks phase changes (e.g. the
// frontier reaching a dense region) within a round or two.
func (pr *parRunner) observe(work, emitted int) {
	if pr == nil || work == 0 {
		return
	}
	f := float64(emitted) / float64(work)
	if !pr.observed {
		pr.fanout, pr.observed = f, true
		return
	}
	pr.fanout = 0.5*pr.fanout + 0.5*f
}

type mergeBatch struct {
	pred string
	rows []rel.Tuple
}

// runTasks evaluates tasks on the worker pool. Workers read the round's
// immutable (total, delta, base) relations through their task sources and
// batch emitted head tuples to a single merger goroutine, which is the
// only writer of the round's sinks — so the sinks' dedup against the
// frozen totals and the growing delta needs no locking. A budget abort in
// any worker (their runners tick per candidate) or in the merger (it
// ticks per batch) re-panics here on the calling goroutine, where the
// evaluation's budget.Guard recovers it; before that the merger drains
// the channel so no worker is left blocked on send.
func (pr *parRunner) runTasks(tasks []roundTask, sinks map[string]*RoundSink, bud *budget.Budget) {
	ch := make(chan mergeBatch, pr.workers*2)
	mergeDone := make(chan any, 1)
	go func() {
		var p any
		func() {
			defer func() { p = recover() }()
			for b := range ch {
				bud.Tick()
				s := sinks[b.pred]
				for _, row := range b.rows {
					s.Add(row)
				}
			}
		}()
		if p != nil {
			for range ch {
			}
		}
		mergeDone <- p
	}()

	var workerPanic any
	func() {
		defer close(ch)
		defer func() { workerPanic = recover() }()
		par.ForEach(pr.workers, len(tasks), func(_, i int) {
			t := tasks[i]
			pred := t.cr.rule.Head.Pred
			run := t.cr.plan.NewRunner()
			row := make(rel.Tuple, t.cr.proj.Arity())
			buf := make([]rel.Tuple, 0, mergeBatchSize)
			run.Run(t.src, nil, func(binding []rel.Value) {
				buf = append(buf, t.cr.proj.Tuple(binding, row).Clone())
				if len(buf) == mergeBatchSize {
					ch <- mergeBatch{pred: pred, rows: buf}
					buf = make([]rel.Tuple, 0, mergeBatchSize)
				}
			})
			if len(buf) > 0 {
				ch <- mergeBatch{pred: pred, rows: buf}
			}
		})
	}()
	if p := <-mergeDone; p != nil && workerPanic == nil {
		workerPanic = p
	}
	if workerPanic != nil {
		panic(workerPanic)
	}
}

// baseTasks is one task per rule against the base source — the shape of
// round 0 and of naive rounds, where parallelism is across rules only.
func baseTasks(compiled []compiledRule, baseSrc conj.RelSource) []roundTask {
	tasks := make([]roundTask, 0, len(compiled))
	for i := range compiled {
		tasks = append(tasks, roundTask{cr: &compiled[i], src: baseSrc})
	}
	return tasks
}

// deltaTasks builds the semi-naive round's task list: one task per rule ×
// IDB occurrence × hash-partitioned chunk of that occurrence's delta.
// Chunk relations share tuple storage with the delta (rel.PartitionHash),
// so fan-out does not copy the frontier.
func (pr *parRunner) deltaTasks(compiled []compiledRule, delta map[string]*rel.Relation, base conj.RelSource) []roundTask {
	var tasks []roundTask
	for i := range compiled {
		cr := &compiled[i]
		if len(cr.idbOccs) == 0 {
			continue
		}
		for _, occ := range cr.idbOccs {
			occIdx := occ
			for _, part := range delta[cr.rule.Body[occ].Pred].PartitionHash(pr.workers) {
				part := part
				tasks = append(tasks, roundTask{cr: cr, src: func(atomIdx int, pred string) *rel.Relation {
					if atomIdx == occIdx {
						return part
					}
					return base(atomIdx, pred)
				}})
			}
		}
	}
	return tasks
}

// deltaWork is the semi-naive round's input size: the sum of the delta
// relations each IDB occurrence will be joined from.
func deltaWork(compiled []compiledRule, delta map[string]*rel.Relation) int {
	work := 0
	for i := range compiled {
		cr := &compiled[i]
		for _, occ := range cr.idbOccs {
			work += delta[cr.rule.Body[occ].Pred].Len()
		}
	}
	return work
}

// baseWork is the round-0 (and naive-round) input size: every rule scans
// its body relations, so the sum of their sizes across rules bounds the
// work the round's joins are driven by.
func baseWork(compiled []compiledRule, relation func(string) *rel.Relation) int {
	work := 0
	for i := range compiled {
		for _, a := range compiled[i].rule.Body {
			if r := relation(a.Pred); r != nil {
				work += r.Len()
			}
		}
	}
	return work
}
