// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads against the engine's public surfaces and prints, as the
// last line of standard output, one JSON object with the run's metrics:
//
//   - separable-select: selections buys(p_k, Y)? on the paper's Example 1.2
//     over datagen.RandomBuysDB, through Engine.QueryCtx and Result.Rows in a
//     closed loop. Auto picks Separable; the core evaluator and the closure
//     cache do the work, in RAM.
//   - magic-fixpoint: selections sg(p_k, Y)? on same-generation over a
//     seeded genealogy, in the same closed loop. The recursion is not
//     separable, so Auto picks Magic Sets: the magic rewrite and the
//     semi-naive rounds do the work while core and the closure cache are
//     bypassed.
//   - serve-rw: separable-select's facts in a durable engine behind
//     internal/server on a loopback port, driven by an open loop of
//     prepared reads, two at a time, and, at every fifth tick, a write to a
//     predicate no query reaches; then by further ticks sent back to back,
//     which measure the served read capacity. Every write strands the
//     closure cache, and reads go through segment files and a block cache
//     smaller than them.
//
// Every answer is compared with an oracle that walks the generated edge
// lists in plain Go; a wrong answer or a lost acknowledged write makes the
// run report "correct": false and exit 1. With -trace 1 the run instead
// reports per-layer numbers: it times calls into each layer's public
// functions from this package, keeps the spans in memory, writes them to
// the output directory at the end, and prints each layer's self time.
// Layers a workload bypasses report 0.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload separable-select --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// The checks on the checks themselves run with "go test" in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sepdl"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the checkout, holding BENCHMARK.json
	out      string // where spans and scratch data go
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workload generates its inputs from the seed and runs.
type workload struct {
	data func(seed int64) (*dataset, error)
	run  func(runConfig, *dataset) (*outcome, error)
}

var workloads = map[string]workload{
	"separable-select": {buysData, func(c runConfig, d *dataset) (*outcome, error) { return runInProcess(c, d, probeCore) }},
	"magic-fixpoint": {func(seed int64) (*dataset, error) { return sgData(seed), nil },
		func(c runConfig, d *dataset) (*outcome, error) { return runInProcess(c, d, probeMagic) }},
	"serve-rw": {buysData, runServe},
}

var workloadOrder = []string{"separable-select", "magic-fixpoint", "serve-rw"}

// outcome collects one workload's result.
type outcome struct {
	attempted, failed int
	wrongs            []string
	flags             []string
	notes             []string
	metrics           map[string]float64
	offered           float64 // open-loop rate, 0 for closed loops
	tr                *tracer
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }
func (o *outcome) wrong(msg string)           { o.wrongs = append(o.wrongs, msg) }
func (o *outcome) flag(msg string)            { o.flags = append(o.flags, msg) }
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// add counts a stretch of reads; counted is false for warm-up, whose
// answers are checked but whose attempts are not measured.
func (o *outcome) add(r *reads, counted bool) {
	o.wrongs = append(o.wrongs, r.wrong...)
	if counted {
		o.attempted += r.attempted
		o.failed += r.failed
	}
}

func (o *outcome) addTraffic(t *traffic) {
	o.wrongs = append(o.wrongs, t.wrong...)
	o.attempted += t.attempted
	o.failed += t.failed
}

// e2e sets the end-to-end metrics of a closed loop.
func (o *outcome) e2e(r *reads, setupS float64) {
	p50, p90, qps := windowStats(r.latMS, r.endS, r.elapsed.Seconds())
	o.set("read_p50_ms", p50)
	o.set("read_p90_ms", p90)
	o.set("read_qps", qps)
	o.set("cpu_ms_per_op", r.cost.cpuMSPerOp)
	o.set("alloc_kb_per_op", r.cost.allocKBPerOp)
	o.set("def42_peak_tuples", mean(r.peak))
	o.set("setup_s", setupS)
	o.note("%d reads in %.2f s, p50 %.3f ms and p90 %.3f ms over the whole stretch; strategies %v",
		len(r.latMS), r.elapsed.Seconds(), quantile(r.latMS, .5), quantile(r.latMS, .9), r.strategy)
}

// layerReads sets the per-layer metrics a traced closed loop gives.
func (o *outcome) layerReads(plain, traced *reads, tr *tracer, before, after sepdl.EngineStats) {
	o.set("engine.call_ms", tr.medianMS("engine.QueryCtx"))
	o.set("engine.eval_ms", median(traced.evalMS))
	o.set("engine.overhead_us", median(traced.overUS))
	o.set("result.rows_us", tr.medianUS("result.Rows"))
	o.layerCounters(before, after, len(traced.latMS))
	o.set("runtime.gc_cpu_frac", traced.cost.gcCPUFrac)
	p0, p1 := quantile(plain.latMS, .5), quantile(traced.latMS, .5)
	o.set("trace.overhead_p50_ms", p1-p0)
	o.set("trace.overhead_pct", 100*(p1/p0-1))
	o.note("untraced half: %d reads, p50 %.3f ms; traced half: %d reads, p50 %.3f ms; strategies %v",
		len(plain.latMS), p0, len(traced.latMS), p1, traced.strategy)
	o.note("a read splits into evaluation %.3f ms (Stats.Duration) + engine overhead %.1f us + Result.Rows %.1f us",
		median(traced.evalMS), median(traced.overUS), tr.medianUS("result.Rows"))
}

// layerCounters sets the metrics read from the engine's and the store's
// counters between two snapshots spanning a stretch of reads.
func (o *outcome) layerCounters(a, b sepdl.EngineStats, reads int) {
	o.set("engine.overloads", float64(b.Overloads-a.Overloads))
	o.set("plancache.plan_hit_ratio", ratio(b.PlanCacheHits-a.PlanCacheHits, b.PlanCacheMisses-a.PlanCacheMisses))
	o.set("plancache.closure_hit_ratio", ratio(b.ClosureCacheHits-a.ClosureCacheHits, b.ClosureCacheMisses-a.ClosureCacheMisses))
	w0, w1 := a.WAL, b.WAL
	if appends := w1.Appends - w0.Appends; appends > 0 {
		o.set("wal.syncs_per_write", float64(w1.Syncs-w0.Syncs)/float64(appends))
		o.set("wal.bytes_per_write", float64(w1.BytesAppended-w0.BytesAppended)/float64(appends))
	}
	o.set("wal.checkpoints", float64(w1.Checkpoints-w0.Checkpoints))
	s0, s1 := w0.Segment, w1.Segment
	o.set("segment.block_hit_ratio", ratio(s1.BlockCacheHits-s0.BlockCacheHits, s1.BlockCacheMisses-s0.BlockCacheMisses))
	o.set("segment.bytes_read_per_read", float64(s1.SegmentBytesRead-s0.SegmentBytesRead)/float64(max(reads, 1)))
	o.set("segment.builds", float64(s1.SegmentBuilds-s0.SegmentBuilds))
}

// spec is the part of BENCHMARK.json the program reads: the names and
// units of the metrics each kind of run must report.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultLine is the run's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricsFor names every metric the run kind must report, with its unit.
// A per-layer metric of a layer the workload bypasses reads 0; an
// end-to-end metric the workload did not measure is an error.
func metricsFor(s *spec, o *outcome, trace bool) (map[string]metric, error) {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload did not measure %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range o.metrics {
		if _, ok := out[name]; !ok && (trace || !isLayerName(s, name)) {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func isLayerName(s *spec, name string) bool {
	for _, m := range s.PerLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// stamp describes the environment a run measured.
func stamp(cfg runConfig, d *dataset, o *outcome) map[string]any {
	st := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commit(cfg.root),
		"source":     sourceDigest(cfg.root),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"sizes":      d.sizes,
	}
	if len(o.flags) > 0 {
		st["flags"] = o.flags
	}
	if o.offered > 0 {
		st["offered_rps"] = o.offered
		st["connections"] = serveConns
	} else {
		st["callers"] = callers
	}
	return st
}

// commit is the checkout's git commit, or "unknown" when the checkout is
// not a git repository of its own.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files, so a run
// outside a git repository still identifies the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runOne runs one workload and prints its report; it returns the result
// line, or an error when the run could not complete.
func runOne(cfg runConfig, s *spec, w io.Writer) (*resultLine, error) {
	wl := workloads[cfg.workload]
	d, err := wl.data(cfg.seed)
	if err != nil {
		return nil, err
	}
	o, err := wl.run(cfg, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	st, err := json.Marshal(stamp(cfg, d, o))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# stamp %s\n", st)
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range o.flags {
		fmt.Fprintf(w, "# FLAG %s\n", f)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", cfg.workload, f)
	}
	if o.tr != nil {
		o.tr.printSelfTimes(w)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := o.tr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "# spans written to %s\n", path)
	}
	for i, msg := range o.wrongs {
		if i == 10 {
			fmt.Fprintf(w, "# WRONG ... %d more\n", len(o.wrongs)-i)
			break
		}
		fmt.Fprintf(w, "# WRONG %s\n", msg)
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong: %s\n", cfg.workload, msg)
	}
	ms, err := metricsFor(s, o, cfg.trace)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	return &resultLine{Correct: len(o.wrongs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms}, nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: separable-select, magic-fixpoint, serve-rw, or all")
	seed := fl.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Float64("seconds", 10, "measured seconds per workload")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	root := fl.String("root", ".", "checkout holding BENCHMARK.json and the module")
	out := fl.String("out", ".bench_build/perfbench", "directory for spans and scratch data")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", n, strings.Join(workloadOrder, ", "))
			return 2
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	s, err := loadSpec(*root)
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	total := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		cfg := runConfig{workload: n, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, out: *out}
		r, err := runOne(cfg, s, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if len(names) == 1 {
			total = *r
			break
		}
		line, _ := json.Marshal(r)
		fmt.Printf("# %s %s\n", n, line)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[n+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}
