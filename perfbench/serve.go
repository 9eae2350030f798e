package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sepdl"
	"sepdl/internal/server"
)

// serve-rw traffic and storage settings.
//
// Each write strands the closure cache, so the next read recomputes the
// class closures, which takes about 100 ms. The open loop sends a write
// alone at one tick, then two reads of one selection at each of the next
// serveCycle-1 ticks, one per connection. The first two reads after a
// write therefore race for the stranded cache: the engine does not share a
// fill in progress, so both compute the closures, each on its own core.
// plancache.closure_fills_per_write counts the closures filled per write,
// duplicates included, and a change that shares fills shows there and in
// cpu_ms_per_op. Sending the pair together keeps that duplication the same
// on every write; reads spaced a fraction of a recompute apart instead
// duplicate a share of it that moves with the host's speed, and every
// metric with it. The tick is longer than the two recomputes, so the next
// pair finds the cache filled. Two reads in eight pay for a recompute:
// read_p50_ms stays among the reads that do not, and read_p90_ms falls
// inside the recompute tail. The last 1/serveCapacity of the run sends
// further ticks back to back, each as soon as the last one's requests are
// answered; read_qps is that stretch's completed reads per second, the
// capacity served. The storage budgets sit below the data size, so reads
// go through segment cursors and a block cache smaller than the segment
// files.
const (
	serveTick       = 250 * time.Millisecond // open loop: one write or two reads are due per tick
	serveCycle      = 5                      // ticks per write
	serveConns      = 2                      // keep-alive connections, shared by reads and writes
	serveCapacity   = 4                      // the last 1/serveCapacity of the run is the closed loop
	serveCheckKeys  = 64                     // selections re-checked at the end and after the reopen
	serveProbes     = 24                     // requests replayed through ServeHTTP in the traced run
	serveAppends    = 16                     // direct durable AddFact calls in the traced run
	serveBehindSecs = 1.0                    // a backlog of this many seconds of traffic flags the run
	memtableBytes   = 1 << 10
	checkpointBytes = 64 << 10
	blockCacheBytes = 8 << 10
)

// serveRate is the open loop's offered rate in requests per second.
const serveRate = float64(1+serveConns*(serveCycle-1)) / serveCycle / (float64(serveTick) / float64(time.Second))

func serveOptions() []sepdl.EngineOption {
	return []sepdl.EngineOption{
		sepdl.WithSyncWrites(true),
		sepdl.WithMemtableBytes(memtableBytes),
		sepdl.WithCheckpointBytes(checkpointBytes),
		sepdl.WithBlockCacheBytes(blockCacheBytes),
	}
}

// traceHandler times each request's Server.ServeHTTP call when a tracer
// is installed, as a child of the client span named in the request's
// headers.
type traceHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	s := tr.start(req, &span{ID: parent}, "server.ServeHTTP")
	h.next.ServeHTTP(w, r)
	tr.finish(s)
}

// served is one durable engine behind internal/server on a loopback port.
type served struct {
	dir    string
	eng    *sepdl.Engine
	srv    *server.Server
	mw     *traceHandler
	hs     *http.Server
	base   string
	handle string
	done   chan error
}

// startServed opens a durable engine in dir, loads the program and facts,
// checkpoints them into segment files, serves it on a loopback port and
// prepares the read handle over HTTP.
func startServed(dir string, d *dataset, client *http.Client) (_ *served, err error) {
	eng, err := sepdl.Open(dir, serveOptions()...)
	if err != nil {
		return nil, err
	}
	s := &served{dir: dir, eng: eng}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if err := eng.LoadProgram(d.program); err != nil {
		return nil, fmt.Errorf("loading program: %w", err)
	}
	if err := eng.LoadFacts(d.facts); err != nil {
		return nil, fmt.Errorf("loading facts: %w", err)
	}
	if err := eng.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = server.New(eng, server.Config{})
	s.mw = &traceHandler{next: s.srv}
	s.hs = &http.Server{Handler: s.mw, ReadHeaderTimeout: 10 * time.Second}
	s.base = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	var prep struct {
		Handle string `json:"handle"`
	}
	status, err := post(client, s.base+"/v1/prepare", map[string]string{"form": d.form}, nil, &prep)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("prepare: status %d: %v", status, err)
	}
	s.handle = prep.Handle
	return s, nil
}

// stop shuts the HTTP server down, waits for it, and closes the engine.
func (s *served) stop() error {
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.srv.Close()
	}
	errs = append(errs, s.eng.Close())
	return errors.Join(errs...)
}

// post sends v as JSON and decodes a 200 response into out.
func post(client *http.Client, url string, v any, hdr http.Header, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// op is one scheduled request: a read of key, or a write of
// note(w<n>, v<seed>).
type op struct {
	n     int // position in the schedule
	tick  int // the open-loop tick it is due at
	write bool
	key   string
}

// schedule returns the requests of ticks from through to-1: a write at
// every serveCycle-th tick and serveConns reads of one selection at each
// other one. A fixed pattern keeps the share of reads that pay for a
// stranded closure cache the same for every seed. The reads of a tick ask
// the same question, so they always do the same work: when one fills the
// closures, so does the other. A selection whose person reaches few others
// needs few closures, and the fill then falls to the next tick.
func schedule(d *dataset, from, to int) []op {
	var ops []op
	for j := from; j < to; j++ {
		if j%serveCycle == 0 {
			ops = append(ops, op{n: j * serveConns, tick: j, write: true})
			continue
		}
		for c := 0; c < serveConns; c++ {
			ops = append(ops, op{n: j*serveConns + c, tick: j, key: d.keys[j%len(d.keys)]})
		}
	}
	return ops
}

func writeFact(i int, seed int64) [2]string {
	return [2]string{"w" + strconv.Itoa(i), "v" + strconv.FormatInt(seed, 10)}
}

// execResponse is the part of /v1/execute's answer the benchmark reads.
type execResponse struct {
	Rows  [][]string `json:"rows"`
	Stats struct {
		ClosureCacheMisses int   `json:"closure_cache_misses"`
		DurationNS         int64 `json:"duration_ns"`
	} `json:"stats"`
}

// traffic is what one stretch of requests measured.
type traffic struct {
	mu                      sync.Mutex
	readMS, writeMS, evalMS []float64
	lagMS                   []float64 // open loop: how late each request was sent
	acked                   [][2]string
	attempted, failed       int
	fills                   int // closures the reads computed afresh
	wrong                   []string
	backlogMax              int64
	elapsed                 time.Duration
	cost                    cost
}

// exchange sends o and records its outcome. Its latency runs from due, so
// time a request spent waiting to be sent or for a connection counts.
func (t *traffic) exchange(s *served, client *http.Client, d *dataset, seed int64, o op, due time.Time, tr *tracer) {
	req := tr.request()
	cs := tr.start(req, nil, "client.request")
	hdr := http.Header{}
	if cs != nil {
		hdr.Set("X-Bench-Req", strconv.FormatInt(req, 10))
		hdr.Set("X-Bench-Span", strconv.FormatInt(cs.ID, 10))
	}
	var status int
	var err error
	var resp execResponse
	if o.write {
		f := writeFact(o.n, seed)
		status, err = post(client, s.base+"/v1/facts",
			map[string]string{"facts": fmt.Sprintf("note(%s, %s).", f[0], f[1])}, hdr, &struct{}{})
	} else {
		status, err = post(client, s.base+"/v1/execute",
			map[string]any{"handle": s.handle, "params": []string{o.key}}, hdr, &resp)
	}
	tr.finish(cs)
	lat := ms(time.Since(due))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil || status != http.StatusOK:
		t.failed++
	case o.write:
		t.writeMS = append(t.writeMS, lat)
		t.acked = append(t.acked, writeFact(o.n, seed))
	default:
		if msg := checkRows(resp.Rows, d.want[o.key]); msg != "" {
			t.wrong = append(t.wrong, fmt.Sprintf("/v1/execute %s: %s", o.key, msg))
			return
		}
		t.readMS = append(t.readMS, lat)
		t.evalMS = append(t.evalMS, float64(resp.Stats.DurationNS)/1e6)
		t.fills += resp.Stats.ClosureCacheMisses
	}
}

// openLoop sends ops, each on its own goroutine at the moment its tick is
// due, whether or not earlier ones have been answered; the transport
// queues those beyond serveConns.
func openLoop(s *served, client *http.Client, d *dataset, seed int64, ops []op, tr *tracer) *traffic {
	t := &traffic{}
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	before := readUsage()
	t0 := before.at.Add(5 * time.Millisecond)
	for _, o := range ops {
		due := t0.Add(time.Duration(o.tick-ops[0].tick) * serveTick)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		t.lagMS = append(t.lagMS, ms(time.Since(due)))
		// Requests sent and not yet answered, this one included.
		t.backlogMax = max(t.backlogMax, outstanding.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			t.exchange(s, client, d, seed, o, due, tr)
		}()
	}
	wg.Wait()
	after := readUsage()
	t.elapsed = after.at.Sub(t0)
	t.cost = costBetween(before, after, t.attempted)
	return t
}

// closedLoopHTTP sends ops tick by tick with no waiting between ticks: a
// tick's requests go out together, and the next tick's once they are all
// answered, until dur has passed or ops run out.
func closedLoopHTTP(s *served, client *http.Client, d *dataset, seed int64, ops []op, dur time.Duration) *traffic {
	t := &traffic{}
	before := readUsage()
	for i := 0; i < len(ops) && time.Since(before.at) < dur; {
		var wg sync.WaitGroup
		for tick := ops[i].tick; i < len(ops) && ops[i].tick == tick; i++ {
			wg.Add(1)
			go func(o op) {
				defer wg.Done()
				t.exchange(s, client, d, seed, o, time.Now(), nil)
			}(ops[i])
		}
		wg.Wait()
	}
	after := readUsage()
	t.elapsed = after.at.Sub(before.at)
	t.cost = costBetween(before, after, t.attempted)
	return t
}

// checkWrites returns "" when every acknowledged write is among the facts
// read back, and a description of the first lost one otherwise.
func checkWrites(rows [][]string, acked [][2]string) string {
	have := make(map[[2]string]bool, len(rows))
	for _, r := range rows {
		if len(r) == 2 {
			have[[2]string{r[0], r[1]}] = true
		}
	}
	for _, w := range acked {
		if !have[w] {
			return fmt.Sprintf("acknowledged write note(%s, %s) is missing (%d of %d read back)", w[0], w[1], len(rows), len(acked))
		}
	}
	return ""
}

// verifyDurable checks that eng holds every acknowledged write and answers
// the first distinct selections as the oracle does. It returns the mean
// Stats.MaxRelationSize of those selections.
func verifyDurable(eng *sepdl.Engine, d *dataset, acked [][2]string, when string, out *outcome) (float64, error) {
	res, err := eng.Query("note(X, Y)?")
	if err != nil {
		return 0, fmt.Errorf("reading writes back %s: %w", when, err)
	}
	if msg := checkWrites(res.Rows(), acked); msg != "" {
		out.wrong(when + ": " + msg)
	}
	var peak []float64
	for _, k := range distinctKeys(d.keys)[:serveCheckKeys] {
		res, err := eng.Query(d.query(k))
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", when, d.query(k), err)
		}
		if msg := checkRows(res.Rows(), d.want[k]); msg != "" {
			out.wrong(fmt.Sprintf("%s %s: %s", when, d.query(k), msg))
		}
		peak = append(peak, float64(res.Stats.MaxRelationSize))
	}
	return mean(peak), nil
}

// ticks is how many open-loop ticks fit in d.
func ticks(d time.Duration) int { return int(d / serveTick) }

// runServe is the serve-rw workload.
func runServe(cfg runConfig, d *dataset) (_ *outcome, err error) {
	out := newOutcome()
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	tmp := filepath.Join(cfg.out, "tmp", fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(tmp)

	rep := 0
	s, setupS, err := timeSetups(out, func() (*served, error) {
		rep++
		return startServed(filepath.Join(tmp, strconv.Itoa(rep)), d, client)
	}, func(s *served) error {
		if err := s.stop(); err != nil {
			return err
		}
		return os.RemoveAll(s.dir)
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()

	out.offered = serveRate
	var t *traffic
	var acked [][2]string
	if !cfg.trace {
		n := ticks(cfg.duration() * (serveCapacity - 1) / serveCapacity)
		t = openLoop(s, client, d, cfg.seed, schedule(d, 0, n), nil)
		// The closed loop gets through ticks many times faster than the
		// open loop; twenty times is more than it can reach.
		capDur := cfg.duration() / serveCapacity
		capacity := closedLoopHTTP(s, client, d, cfg.seed, schedule(d, n, n+20*ticks(capDur)), capDur)
		out.addTraffic(t)
		out.addTraffic(capacity)
		acked = append(t.acked, capacity.acked...)
		out.set("read_p50_ms", quantile(t.readMS, .5))
		out.set("read_p90_ms", quantile(t.readMS, .9))
		out.set("read_qps", float64(len(capacity.readMS))/capacity.elapsed.Seconds())
		out.set("cpu_ms_per_op", t.cost.cpuMSPerOp)
		out.set("alloc_kb_per_op", t.cost.allocKBPerOp)
		out.set("setup_s", setupS)
		out.note("closed loop over %d connections: %d reads and %d writes in %.2f s", serveConns, len(capacity.readMS), len(capacity.writeMS), capacity.elapsed.Seconds())
	} else {
		n := ticks(cfg.duration())
		plain := openLoop(s, client, d, cfg.seed, schedule(d, 0, n/2), nil)
		out.addTraffic(plain)
		tr := newTracer()
		s.mw.tr.Store(tr)
		st0 := s.eng.Stats()
		t = openLoop(s, client, d, cfg.seed, schedule(d, n/2, n), tr)
		st1 := s.eng.Stats()
		s.mw.tr.Store(nil)
		out.addTraffic(t)
		out.tr = tr
		out.set("trace.overhead_p50_ms", quantile(t.readMS, .5)-quantile(plain.readMS, .5))
		out.set("trace.overhead_pct", 100*(quantile(t.readMS, .5)/quantile(plain.readMS, .5)-1))
		acked = append(plain.acked, t.acked...)
		p, err := s.eng.Prepare(d.form)
		if err != nil {
			return nil, err
		}
		added, err := probeServe(d, s, p, tr, st0, st1, t, out)
		if err != nil {
			return nil, err
		}
		acked = append(acked, added...)
	}
	fills := float64(t.fills) / float64(max(len(t.writeMS), 1))
	out.set("runtime.gc_cpu_frac", t.cost.gcCPUFrac)
	out.set("serve.write_p50_ms", zeroNaN(quantile(t.writeMS, .5)))
	out.set("serve.write_p90_ms", zeroNaN(quantile(t.writeMS, .9)))
	out.set("plancache.closure_fills_per_write", fills)
	out.set("serve.gen_lag_p90_ms", quantile(t.lagMS, .9))
	out.set("serve.backlog_max", float64(t.backlogMax))
	out.note("serve-rw open loop: %d requests at %.1f/s: %d reads, %d acknowledged writes; write p50 %.3f ms, p90 %.3f ms; %.0f closures filled per write",
		t.attempted, serveRate, len(t.readMS), len(t.writeMS), quantile(t.writeMS, .5), quantile(t.writeMS, .9), fills)
	out.note("generator lag p90 %.3f ms, max backlog %d requests", quantile(t.lagMS, .9), t.backlogMax)
	if float64(t.backlogMax) > serveBehindSecs*serveRate {
		out.flag(fmt.Sprintf("generator fell behind: backlog reached %d requests (%.1f s of traffic)", t.backlogMax, float64(t.backlogMax)/serveRate))
	}

	peak, err := verifyDurable(s.eng, d, acked, "at the end", out)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// The same Definition 4.2 measure separable-select reports, taken on
		// the durable engine's cold-tier evaluation of the checked selections.
		out.set("def42_peak_tuples", peak)
	}
	stopped = true
	if err := s.stop(); err != nil {
		return nil, err
	}
	eng, err := sepdl.Open(s.dir, serveOptions()...)
	if err != nil {
		return nil, fmt.Errorf("reopening: %w", err)
	}
	defer eng.Close()
	out.set("wal.recovery_ms", float64(eng.Stats().WAL.RecoveryNanos)/1e6)
	_, err = verifyDurable(eng, d, acked, "after reopen", out)
	return out, err
}

// probeServe derives serve-rw's per-layer numbers: network and handler
// time from the traced stretch, handler and engine calls replayed in
// process, direct durable appends and a checkpoint, and the store's
// counters over the traced stretch. It returns the facts it appended.
func probeServe(d *dataset, s *served, p *sepdl.Prepared, tr *tracer, st0, st1 sepdl.EngineStats, t *traffic, out *outcome) ([][2]string, error) {
	var net []float64
	kids := map[int64]float64{}
	roots := map[int64]float64{}
	for _, sp := range tr.snapshot() {
		switch sp.Name {
		case "server.ServeHTTP":
			kids[sp.Parent] = float64(sp.dur())
		case "client.request":
			roots[sp.ID] = float64(sp.dur())
		}
	}
	for id, c := range roots {
		if h, ok := kids[id]; ok {
			net = append(net, (c-h)/1e6)
		}
	}
	out.set("server.net_ms", median(net))
	out.set("engine.eval_ms", median(t.evalMS))
	out.layerCounters(st0, st1, len(t.readMS))

	keys := distinctKeys(d.keys)[:serveProbes]
	if err := probeParse(d, keys, tr, out); err != nil {
		return nil, err
	}
	var handler, call, over, codec []float64
	for _, k := range keys {
		req := tr.request()
		root := tr.start(req, nil, "probe.server")
		// The untimed first call refills whatever a write stranded, so the
		// handler and the direct call below do the same work.
		if _, err := p.Run(context.Background(), k); err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]any{"handle": s.handle, "params": []string{k}})
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		h := tr.timed(req, root, "server.Handler", func() {
			s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body)))
		})
		var resp execResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			return nil, fmt.Errorf("in-process /v1/execute %s: status %d", k, rec.Code)
		}
		if msg := checkRows(resp.Rows, d.want[k]); msg != "" {
			out.wrong(fmt.Sprintf("in-process /v1/execute %s: %s", k, msg))
		}
		var res *sepdl.Result
		c := tr.timed(req, root, "engine.Prepared.Run", func() { res, err = p.Run(context.Background(), k) })
		if err != nil {
			return nil, err
		}
		var rows [][]string
		r := tr.timed(req, root, "result.Rows", func() { rows = res.Rows() })
		tr.finish(root)
		if msg := checkRows(rows, d.want[k]); msg != "" {
			out.wrong(fmt.Sprintf("Prepared.Run %s: %s", k, msg))
		}
		handler = append(handler, ms(h))
		call = append(call, ms(c))
		over = append(over, us(c-res.Stats.Duration))
		// The handler decodes the request, runs the engine, renders rows
		// and encodes the response; codec is what is left after the
		// engine call and Result.Rows.
		codec = append(codec, us(h-c-r))
	}
	out.set("server.handler_ms", median(handler))
	out.set("server.codec_us", median(codec))
	out.set("engine.call_ms", median(call))
	out.set("engine.overhead_us", median(over))
	out.set("result.rows_us", tr.medianUS("result.Rows"))

	var added [][2]string
	for i := 0; i < serveAppends; i++ {
		f := [2]string{"a" + strconv.Itoa(i), "v0"}
		var err error
		tr.timed(tr.request(), nil, "engine.AddFact", func() { err = s.eng.AddFact("note", f[0], f[1]) })
		if err != nil {
			return nil, fmt.Errorf("durable AddFact: %w", err)
		}
		added = append(added, f)
	}
	out.set("wal.append_us", tr.medianUS("engine.AddFact"))
	var err error
	tr.timed(tr.request(), nil, "engine.Checkpoint", func() { err = s.eng.Checkpoint() })
	out.set("wal.checkpoint_ms", tr.medianMS("engine.Checkpoint"))
	return added, err
}
