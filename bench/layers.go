package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/relational"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// layers.go is the only file of the benchmark that reaches past
// internal/tpcd. The traced replay (-trace 1) runs a workload's generated
// operations in process, one at a time, three ways:
//
//   - served: through server.Service.Handler() over loopback HTTP with one
//     client, untraced — what a request costs with every layer in place;
//   - traced: the same operation taken apart, a span around each call into a
//     layer's public functions (the entry points README.md lists);
//   - twice more for the two subtraction metrics: mil.Exec without a pager
//     (kernel time alone) and Store.Ingest on a store without a directory
//     (apply alone).
//
// Each way runs on a store of its own, opened from the same genesis and fed
// the same batches, so the three stay in lockstep without sharing caches.

// renderReference renders the reference evaluator's answer the way the
// server renders results; ops.go compares served answers with it.
func renderReference(gen *tpcd.DB, num int) ([]string, error) {
	set, err := tpcd.Reference(gen, num)
	if err != nil {
		return nil, err
	}
	return renderSet(set), nil
}

func renderSet(set *moa.SetVal) []string {
	out := make([]string, len(set.Elems))
	for i, e := range set.Elems {
		out[i] = moa.RenderVal(e.V)
	}
	return out
}

// span is one timed call into a layer. Spans of one operation share Op; the
// operation's root span has Parent -1.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the replay is over.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(op int, name string, parent int) int {
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 200000
	t := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(i, "calibrate", -1))
	}
	return time.Since(start) / n
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// stack is one store with what moaserve puts around it. openStack mirrors
// cmd/moaserve's newService with every flag at its default.
type stack struct {
	cfg   tpcd.DurableConfig
	st    *epoch.Store
	gen   func() *tpcd.DB
	pager *storage.Pager
	svc   *server.Service
}

func openStack(sf float64, dir string) (*stack, error) {
	s := &stack{cfg: tpcd.DurableConfig{Dir: dir, SF: sf, Seed: dbSeed, SnapshotEvery: snapshotEvery}}
	var err error
	if s.st, s.gen, err = tpcd.OpenStoreLazy(s.cfg); err != nil {
		return nil, err
	}
	s.pager = storage.NewPager(0, 0)
	db := engine.New(tpcd.Schema(), s.st.Manager().Current().Env)
	db.Pager = s.pager
	s.svc = server.New(db, server.Config{Workers: 1, MemBudgetBytes: 256 << 20})
	s.svc.AttachStore(s.st)
	s.svc.PrepareIngest = func(body []byte) ([]byte, error) {
		var d directive
		if err := json.Unmarshal(body, &d); err == nil && d.Generate > 0 {
			return s.refresh(d)
		}
		return body, nil
	}
	return s, nil
}

func (s *stack) refresh(d directive) ([]byte, error) {
	return tpcd.EncodeRefresh(tpcd.GenRefresh(s.gen(), d.Seed, d.Generate))
}

// cost is what one operation took, layer by layer.
type cost struct {
	http      time.Duration // served: request bytes in to response bytes out
	miss      bool          // served: the plan cache prepared this request
	prep      time.Duration // traced: parse + check + translate
	execPaged time.Duration // traced: mil.Exec with the default pager
	mat       time.Duration
	render    time.Duration
	genEncode time.Duration
	durable   time.Duration // traced: Store.Ingest on the durable store
	epoch     uint64        // the epoch a traced ingest published
	walBytes  int64         // ...and by how much its WAL segment grew
	payload   int
}

// engine is the traced operation's total: the spans that replace what the
// server did inside the request.
func (c cost) engine() time.Duration {
	e := c.execPaged + c.mat + c.render + c.genEncode + c.durable
	if c.miss {
		e += c.prep
	}
	return e
}

// counts are the exact per-replay counters read off mil.Ctx and the
// statement traces.
type counts struct {
	touches, faults         uint64
	interm, peak            int64
	accelBuilds             int
	accelBuildNs            int64
	opNs                    map[string]int64
	reads, failed, compared int
}

// replay is one traced run.
type replay struct {
	w       workload
	tr      *tracer
	schema  *moa.Schema
	direct  *stack // traced operations
	mem     *stack // apply-only twin, write workloads
	refs    map[refKey]*moa.SetVal
	v       *verifier
	n       counts
	errs    []string
	started bool // counters are kept only between warm-up and the end checks

	checks                   tally // served requests: attempted, failed
	costs                    []cost
	m0, m1                   server.Metrics // around the served pass
	servedTotal, tracedTotal time.Duration
	recovery                 time.Duration
	diskBytes                int64
	walSyncs, ingests        int64 // of the traced durable store, before its close
	relMs, monetOverRel      float64
}

type refKey struct {
	graph *tpcd.DB
	num   int
}

func (r *replay) fail(err error) {
	r.n.failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err.Error())
	}
}

// read takes one query apart.
func (r *replay) read(i int, o op) cost {
	var c cost
	tr := r.tr
	root := tr.begin(i, "op", -1)
	sp := tr.begin(i, "moa.parse", root)
	e, err := moa.Parse(o.body)
	c.prep += tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}
	sp = tr.begin(i, "moa.check", root)
	ck, err := moa.Check(r.schema, e)
	c.prep += tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}
	sp = tr.begin(i, "rewrite.translate", root)
	prep, err := rewrite.Translate(ck)
	c.prep += tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}

	ep := r.direct.st.Manager().Acquire()
	defer ep.Release()
	ctx := mil.NewCtx(context.Background(), mil.Options{Pager: r.direct.pager, Workers: 1})
	sp = tr.begin(i, "mil.exec.paged", root)
	scope, traces, err := mil.Exec(ctx, prep.Prog, ep.Env)
	c.execPaged = tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}
	sp = tr.begin(i, "moa.materialize", root)
	set, err := moa.Materialize(scope, prep.Struct)
	c.mat = tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}
	sp = tr.begin(i, "server.render_encode", root)
	resp := server.QueryResponse{Count: len(set.Elems), Elems: renderSet(set),
		Faults: ctx.PageFaults(), IntermBytes: ctx.IntermBytes, PeakBytes: ctx.PeakBytes}
	err = json.NewEncoder(io.Discard).Encode(resp)
	c.render = tr.end(sp)
	tr.end(root)
	if err != nil {
		r.fail(err)
		return c
	}

	// Outside the operation: the same program with no pager is the kernels
	// alone; the difference to the paged run is touch accounting. (Running
	// it before the paged run instead moves neither number beyond noise.)
	bare := mil.NewCtx(context.Background(), mil.Options{Workers: 1})
	sp = tr.begin(i, "mil.exec", -1)
	_, bareTraces, err := mil.Exec(bare, prep.Prog, ep.Env)
	tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}

	if r.started {
		r.n.reads++
		r.n.touches += ctx.PageFaults() + ctx.PageHits()
		r.n.faults += ctx.PageFaults()
		r.n.interm += ctx.IntermBytes
		r.n.peak = max(r.n.peak, ctx.PeakBytes)
		for _, t := range bareTraces {
			r.n.opNs[opClass(t.Text)] += int64(t.Elapsed)
		}
	}
	// Builds are counted from the first request on: they are set-up work.
	for _, t := range traces {
		r.n.accelBuilds += t.AccelBuilds
		r.n.accelBuildNs += t.AccelBuildNs
	}

	if err := r.v.check(o, answer{Count: resp.Count, Elems: resp.Elems}); err != nil {
		r.fail(fmt.Errorf("traced: %w", err))
	}
	if o.graph != nil {
		k := refKey{o.graph, o.num}
		if r.refs[k] == nil {
			if r.refs[k], err = tpcd.Reference(o.graph, o.num); err != nil {
				r.fail(err)
				return c
			}
		}
		r.n.compared++
		if err := tpcd.CompareResults(set, r.refs[k], o.ordered); err != nil {
			r.fail(fmt.Errorf("traced %s: %w", o.class, err))
		}
	}
	return c
}

// opClasses are the operator families mil.op_share is reported for.
var opClasses = []string{"select", "join", "semijoin", "group", "aggr", "multiplex", "other"}

// opClass names the operator family of a MIL statement "dst := op(args)".
func opClass(stmt string) string {
	_, rhs, _ := strings.Cut(stmt, ":= ")
	switch {
	case strings.HasPrefix(rhs, "select("):
		return "select"
	case strings.HasPrefix(rhs, "join("):
		return "join"
	case strings.HasPrefix(rhs, "semijoin("):
		return "semijoin"
	case strings.HasPrefix(rhs, "group("), strings.HasSuffix(rhs, ".unique"):
		return "group"
	case strings.HasPrefix(rhs, "{"):
		return "aggr"
	case strings.HasPrefix(rhs, "["):
		return "multiplex"
	}
	return "other"
}

// write takes one ingest apart.
func (r *replay) write(i int, o op) cost {
	var c cost
	tr := r.tr
	root := tr.begin(i, "op", -1)
	sp := tr.begin(i, "tpcd.gen_encode", root)
	payload, err := r.direct.refresh(o.dir)
	c.genEncode = tr.end(sp)
	if err != nil {
		r.fail(err)
		return c
	}
	before := r.direct.st.WALBytes()
	sp = tr.begin(i, "epoch.ingest.durable", root)
	ep, err := r.direct.st.Ingest(payload)
	c.durable = tr.end(sp)
	tr.end(root)
	if err != nil {
		r.fail(err)
		return c
	}
	c.epoch, c.payload, c.walBytes = ep.ID, len(payload), r.direct.st.WALBytes()-before

	sp = tr.begin(i, "epoch.ingest.mem", -1)
	_, err = r.mem.st.Ingest(payload)
	tr.end(sp)
	if err != nil {
		r.fail(err)
	}
	return c
}

func (r *replay) do(i int, o op) cost {
	if o.ingest {
		return r.write(i, o)
	}
	return r.read(i, o)
}

// traceOps sizes the replay: fixed operation counts per second of -seconds,
// so that counters repeat exactly from run to run. The constants put a
// traced run near the length of an end-to-end run on a 2-vCPU host.
func traceOps(w workload, p plan, seconds int) []op {
	var ops []op
	next := p.streams[0]
	if w.name == "mixed.readwrite" {
		// The served run schedules ingests by the clock; one operation at a
		// time there is no clock to race, so each ingest is followed by one
		// pass over the query list.
		for k := 1; k <= max(1, seconds/3); k++ {
			ops = append(ops, p.writer(k))
			for i := 0; i < 15; i++ {
				ops = append(ops, next())
			}
		}
		return ops
	}
	perSecond := map[string]int{"fig9.mix": 15, "lookup.adhoc": 200, "ingest.durable": 8}
	for i := 0; i < perSecond[w.name]*seconds; i++ {
		ops = append(ops, next())
	}
	return ops
}

func runLayers(w workload, seed int64, seconds int, build string) (result, error) {
	work, err := os.MkdirTemp(build, "replay-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	dirOf := func(name string) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(work, name)
	}

	gen := tpcd.Generate(w.sf, dbSeed)
	p, err := makePlan(w, gen, seed)
	if err != nil {
		return result{}, err
	}
	ops := traceOps(w, p, seconds)

	served, err := openStack(w.sf, dirOf("served"))
	if err != nil {
		return result{}, err
	}
	defer served.st.Close()
	direct, err := openStack(w.sf, dirOf("direct"))
	if err != nil {
		return result{}, err
	}
	defer func() { direct.st.Close() }()
	r := &replay{w: w, tr: &tracer{t0: time.Now()}, schema: tpcd.Schema(), direct: direct, refs: map[refKey]*moa.SetVal{},
		v: newVerifier(), n: counts{opNs: map[string]int64{}}}
	if w.durable {
		if r.mem, err = openStack(w.sf, ""); err != nil {
			return result{}, err
		}
		defer r.mem.st.Close()
	}

	hs := httptest.NewServer(served.svc.Handler())
	defer hs.Close()
	c := newClient(hs.URL)
	sess := &session{v: newVerifier()}
	servedOp := func(o op) (time.Duration, bool) {
		before := served.svc.Snapshot().PlanMisses
		r.checks.attempted++
		lat, err := sess.do(c, o)
		if err != nil {
			r.checks.note(fmt.Errorf("served: %w", err))
		}
		return lat, served.svc.Snapshot().PlanMisses > before
	}
	both := func(i int, o op) cost {
		lat, miss := servedOp(o)
		c := r.do(i, o)
		c.http, c.miss = lat, miss
		return c
	}

	// Warm-up on both stores, as in the end-to-end run.
	for _, o := range p.warm {
		both(-1, o)
	}
	r.started = true
	r.m0 = served.svc.Snapshot()

	r.costs = make([]cost, len(ops))
	start := time.Now()
	for i, o := range ops {
		r.costs[i].http, r.costs[i].miss = servedOp(o)
	}
	r.servedTotal = time.Since(start)
	r.m1 = served.svc.Snapshot()
	start = time.Now()
	for i, o := range ops {
		c := r.do(i, o)
		c.http, c.miss = r.costs[i].http, r.costs[i].miss
		r.costs[i] = c
	}
	r.tracedTotal = time.Since(start)

	// Durable workloads end like their end-to-end runs: the digest on the
	// final state, then the store is closed and recovered from its directory.
	if w.durable {
		mirror, err := mirrorDB(w.sf, sess.acked)
		if err != nil {
			return result{}, err
		}
		digest, err := digestOps(mirror)
		if err != nil {
			return result{}, err
		}
		sess.v.forget()
		r.v.forget()
		for i, o := range digest {
			r.costs = append(r.costs, both(len(ops)+i, o))
		}
		if r.diskBytes, err = dirBytes(direct.cfg.Dir); err != nil {
			return result{}, err
		}
		r.walSyncs, r.ingests = direct.st.WALSyncs(), direct.st.Ingests()
		want := direct.st.Manager().CurrentID()
		direct.st.Close()
		start := time.Now()
		reopened, err := openStack(w.sf, direct.cfg.Dir)
		if err != nil {
			return result{}, fmt.Errorf("recovery: %w", err)
		}
		r.recovery = time.Since(start)
		direct, r.direct = reopened, reopened
		if got := reopened.st.Manager().CurrentID(); got != want {
			r.fail(fmt.Errorf("recovered epoch %d, closed at %d", got, want))
		}
		r.started = false // the recovered answers are checked, not measured
		for _, o := range digest {
			r.do(-1, o) // same verifier: must be identical to before the close
		}
	}
	if err := r.tr.write(filepath.Join(build, "trace-"+w.name+".jsonl")); err != nil {
		return result{}, err
	}
	if r.relMs, r.monetOverRel, err = calibrate(gen); err != nil {
		return result{}, err
	}
	for _, e := range append(r.checks.errs, r.errs...) {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	return r.report(seed, seconds), nil
}

// calibrate is the calibration channel: the Figure-9 queries on
// relational.Store and on the flattened engine over the same genesis data,
// no pager on either side, three times each. It returns the baseline's total
// of per-query medians and the geometric mean of monet/relational.
func calibrate(gen *tpcd.DB) (relMs, geomean float64, err error) {
	rel := relational.Load(gen)
	env, _ := tpcd.Load(gen)
	monet := engine.New(tpcd.Schema(), env)
	var logSum float64
	qs := tpcd.Queries(gen)
	for _, q := range qs {
		var tr, tm []time.Duration
		for rep := 0; rep < 3; rep++ {
			a, err := rel.Run(gen, q.Num)
			if err != nil {
				return 0, 0, err
			}
			b, err := monet.Query(q.MOA)
			if err != nil {
				return 0, 0, err
			}
			tr, tm = append(tr, a.Elapsed), append(tm, b.Stats.Elapsed)
		}
		relMs += ms(median(tr))
		logSum += math.Log(float64(median(tm)) / float64(median(tr)))
	}
	return relMs, math.Exp(logSum / float64(len(qs))), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// report turns the spans and counters into the per-layer metrics.
func (r *replay) report(seed int64, seconds int) result {
	w, costs := r.w, r.costs
	// Span totals by name.
	sumNs, cnt, spans := map[string]int64{}, map[string]int{}, 0
	for _, s := range r.tr.spans {
		if s.Op >= 0 { // warm-up and end checks carry op -1
			sumNs[s.Name] += s.End - s.Start
			cnt[s.Name]++
			spans++
		}
	}
	mean := func(name string, unit time.Duration) float64 {
		if cnt[name] == 0 {
			return 0
		}
		return float64(sumNs[name]) / float64(cnt[name]) / float64(unit)
	}

	var http, engineNs, kernelNs time.Duration
	var ckpt, plain []time.Duration
	var walBytes, walPayload, payload int64
	var ingests int
	for _, c := range costs {
		http += c.http
		engineNs += c.engine()
		kernelNs += c.execPaged
		if c.payload > 0 {
			ingests++
			payload += int64(c.payload)
			if c.epoch%snapshotEvery == 0 {
				ckpt = append(ckpt, c.durable)
			} else {
				plain = append(plain, c.durable)
				walBytes += c.walBytes
				walPayload += int64(c.payload)
			}
		}
	}
	perOp := func(d time.Duration, unit time.Duration) float64 {
		return float64(d) / float64(len(costs)) / float64(unit)
	}
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var stall float64
	if len(ckpt) > 0 && len(plain) > 0 {
		stall = ms(median(ckpt)) - ms(median(plain))
	}
	var opTotal int64
	for _, ns := range r.n.opNs {
		opTotal += ns
	}
	hits, misses := r.m1.PlanHits-r.m0.PlanHits, r.m1.PlanMisses-r.m0.PlanMisses
	spanNs := spanCost()
	overhead := share(float64(spanNs)*float64(spans), float64(r.tracedTotal))
	// The warm-up's ingests grew the directory too; they are of the same
	// size as the rest.
	if ingests > 0 {
		payload = payload / int64(ingests) * r.ingests
	}

	m := map[string]metric{
		"moa.parse_us":                   {mean("moa.parse", time.Microsecond), "us"},
		"moa.check_us":                   {mean("moa.check", time.Microsecond), "us"},
		"rewrite.translate_us":           {mean("rewrite.translate", time.Microsecond), "us"},
		"mil.exec_ms":                    {mean("mil.exec", time.Millisecond), "ms"},
		"mil.interm_bytes":               {share(float64(r.n.interm), float64(r.n.reads)), "bytes"},
		"mil.peak_bytes":                 {float64(r.n.peak), "bytes"},
		"bat.accel_builds":               {float64(r.n.accelBuilds), "count"},
		"bat.accel_build_ms":             {float64(r.n.accelBuildNs) / 1e6, "ms"},
		"storage.touch_ms":               {mean("mil.exec.paged", time.Millisecond) - mean("mil.exec", time.Millisecond), "ms"},
		"storage.touches":                {float64(r.n.touches), "count"},
		"storage.faults":                 {float64(r.n.faults), "count"},
		"moa.materialize_us":             {mean("moa.materialize", time.Microsecond), "us"},
		"server.render_encode_us":        {mean("server.render_encode", time.Microsecond), "us"},
		"server.overhead_us":             {perOp(http-engineNs, time.Microsecond), "us"},
		"server.plan_hit_ratio":          {share(float64(hits), float64(hits+misses)), "ratio"},
		"server.shed":                    {float64(r.m1.Shed - r.m0.Shed), "count"},
		"tpcd.gen_encode_ms":             {mean("tpcd.gen_encode", time.Millisecond), "ms"},
		"tpcd.apply_ms":                  {mean("epoch.ingest.mem", time.Millisecond), "ms"},
		"epoch.durable_ms":               {mean("epoch.ingest.durable", time.Millisecond) - mean("epoch.ingest.mem", time.Millisecond), "ms"},
		"epoch.checkpoint_stall_ms":      {stall, "ms"},
		"epoch.wal_bytes_per_user_byte":  {share(float64(walBytes), float64(walPayload)), "B/B"},
		"epoch.disk_bytes_per_user_byte": {share(float64(r.diskBytes), float64(payload)), "B/B"},
		"epoch.wal_syncs_per_ingest":     {share(float64(r.walSyncs), float64(r.ingests)), "1/op"},
		"epoch.recovery_s":               {r.recovery.Seconds(), "s"},
		"relational.fig9_ms":             {r.relMs, "ms"},
		"engine.monet_over_rel_geomean":  {r.monetOverRel, "ratio"},
		"trace.kernel_storage_share":     {share(float64(kernelNs), float64(http)), "share"},
		"trace.overhead_share":           {overhead, "share"},
	}
	for _, c := range opClasses {
		m["mil.op_share."+c] = metric{share(float64(r.n.opNs[c]), float64(opTotal)), "share"}
	}

	failed := r.checks.failed + r.n.failed
	attempted := r.checks.attempted + len(costs) + r.n.compared
	fmt.Printf("workload %s: seed=%d sf=%g seconds=%d traced replay, one operation at a time: %d operations (%d ingests), %d spans\n",
		w.name, seed, w.sf, seconds, len(costs), ingests, spans)
	fmt.Printf("  served total %.3fs, traced total %.3fs (the traced pass also runs each program without a pager and each batch without a directory)\n",
		r.servedTotal.Seconds(), r.tracedTotal.Seconds())
	fmt.Printf("  tracing overhead: %d spans x %dns per span = %.4f%% of the traced total\n", spans, spanNs, 100*overhead)
	fmt.Printf("  per operation: served %.1fus = engine spans %.1fus + server.overhead_us %.1fus; kernel+storage spans are %.1f%% of served time\n",
		perOp(http, time.Microsecond), perOp(engineNs, time.Microsecond), perOp(http-engineNs, time.Microsecond), 100*share(float64(kernelNs), float64(http)))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}
