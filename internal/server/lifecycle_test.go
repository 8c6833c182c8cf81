package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/engine"
	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/tpcd"
)

// referenceResults runs the mix sequentially on a private database and
// renders each result — the bit-identical baseline every survivor of a
// chaotic run must match.
func referenceResults(t *testing.T) []string {
	t.Helper()
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	db := engine.New(tpcd.Schema(), env)
	queries := tpcd.Queries(gen)
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q.MOA)
		if err != nil {
			t.Fatalf("sequential Q%d: %v", q.Num, err)
		}
		want[i] = moa.RenderVal(res.Set)
	}
	return want
}

// lifecycleStats extracts the per-query fault/hit attribution from a query
// outcome: success Stats, or the Stats carried by the typed cancel/internal
// errors — a failed query's touches still count toward conservation.
func lifecycleStats(res *engine.Result, err error) (faults, hits uint64, counted bool) {
	if err == nil {
		return res.Stats.Faults, res.Stats.Hits, true
	}
	var ce *engine.CanceledError
	if errors.As(err, &ce) {
		return ce.Stats.Faults, ce.Stats.Hits, true
	}
	var ie *engine.InternalError
	if errors.As(err, &ie) {
		return ie.Stats.Faults, ie.Stats.Hits, true
	}
	return 0, 0, false
}

// TestQueryTimeout: a server-default deadline (Config.QueryTimeout) stops a
// slow query within the deadline's reach, surfaces the typed cancel error
// wrapping context.DeadlineExceeded, counts it as a timeout (not an error),
// and leaks nothing; with the slowness removed the same service serves the
// same query normally.
func TestQueryTimeout(t *testing.T) {
	// Wide margins so the test holds under -race slowdown: the hooked run
	// needs >10 statements to pass the deadline, the clean run finishes in
	// a small fraction of it.
	svc, mix := testServicePaged(t, Config{MaxConcurrent: 4, QueryTimeout: time.Second})
	mil.SetExecHook(func(i int, op string) { time.Sleep(100 * time.Millisecond) })
	defer mil.SetExecHook(nil)

	_, err := svc.Query(context.Background(), mix[0])
	var ce *engine.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want *engine.CanceledError wrapping DeadlineExceeded", err)
	}
	m := svc.Snapshot()
	if m.Timeouts != 1 || m.Canceled != 0 || m.Errors != 0 {
		t.Fatalf("counters after timeout: timeouts=%d canceled=%d errors=%d, want 1/0/0", m.Timeouts, m.Canceled, m.Errors)
	}
	if live := svc.Gauge().Live(); live != 0 {
		t.Fatalf("timed-out query leaked %d gauge bytes", live)
	}

	mil.SetExecHook(nil)
	if _, err := svc.Query(context.Background(), mix[0]); err != nil {
		t.Fatalf("same query after timeout failed: %v", err)
	}
}

// TestQueryCancelWhileQueued: a context that dies while the query waits for
// an execution slot leaves without wedging the slot pool.
func TestQueryCancelWhileQueued(t *testing.T) {
	svc, mix := testServicePaged(t, Config{MaxConcurrent: 1})

	// Occupy the only slot.
	release := make(chan struct{})
	occupied := make(chan struct{})
	mil.SetExecHook(func(i int, op string) {
		if i == 0 {
			close(occupied)
			<-release
		}
	})
	defer mil.SetExecHook(nil)
	done := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), mix[0])
		done <- err
	}()
	<-occupied
	mil.SetExecHook(nil) // only the occupier sleeps

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Query(ctx, mix[1])
	var ce *engine.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel: got %v, want *engine.CanceledError wrapping Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("occupying query failed: %v", err)
	}
	// The slot came back: another query runs.
	if _, err := svc.Query(context.Background(), mix[1]); err != nil {
		t.Fatalf("slot pool wedged after queued cancel: %v", err)
	}
	if m := svc.Snapshot(); m.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", m.Canceled)
	}
}

// TestPanicContainmentAndQuarantine: an injected panic mid-execution (the
// stand-in for a kernel invariant failure) fails only that query — typed
// internal error with op trace, panic counter, quarantined cached plan —
// and the service keeps serving the same source by re-preparing it.
func TestPanicContainmentAndQuarantine(t *testing.T) {
	svc, mix := testService(t, Config{MaxConcurrent: 4})
	q := mix[0]
	if _, err := svc.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	_, misses0, _ := svc.plans.stats()

	var armed atomic.Bool
	armed.Store(true)
	mil.SetExecHook(func(i int, op string) {
		if armed.CompareAndSwap(true, false) {
			panic("injected kernel fault")
		}
	})
	defer mil.SetExecHook(nil)

	_, err := svc.Query(context.Background(), q)
	var ee *ExecError
	var ie *engine.InternalError
	var pe *mil.PanicError
	if !errors.As(err, &ee) || !errors.As(err, &ie) || !errors.As(err, &pe) {
		t.Fatalf("got %v, want ExecError > InternalError > PanicError", err)
	}
	if pe.Value != "injected kernel fault" || len(ie.Stack) == 0 {
		t.Fatalf("panic trace lost: %+v", pe)
	}
	m := svc.Snapshot()
	if m.Panics != 1 || m.Errors != 1 {
		t.Fatalf("panics=%d errors=%d, want 1/1", m.Panics, m.Errors)
	}
	if live := svc.Gauge().Live(); live != 0 {
		t.Fatalf("panicked query leaked %d gauge bytes", live)
	}

	// The plan was quarantined: serving the same source again re-prepares
	// (one more miss) and succeeds.
	if _, err := svc.Query(context.Background(), q); err != nil {
		t.Fatalf("query after contained panic failed: %v", err)
	}
	if _, misses1, _ := svc.plans.stats(); misses1 != misses0+1 {
		t.Fatalf("plan misses %d → %d: quarantine did not evict the plan", misses0, misses1)
	}
}

// TestCancelMidBuildRebuildsOnce: cancelling a query as it enters the
// statement that builds a shared accelerator — the hash index on the head
// of the base BAT Item_shipdate, which a singleflight slot (bat.accelSlot)
// publishes for every later query over the same env — must not poison or
// double-build the slot: the build consults the query's stop hook, so the
// cancelled run publishes nothing, the retry publishes what one clean cold
// run does and answers as it does, and a third run builds what a warm run
// builds.
func TestCancelMidBuildRebuildsOnce(t *testing.T) {
	prog, err := mil.ParseProgram(`
		sel := select(Item_returnflag, 'R')
		sj := semijoin(sel, Item_shipdate)
		u := sj.unique`)
	if err != nil {
		t.Fatal(err)
	}
	prog.Keep = []string{"u"}
	gen := tpcd.Generate(0.002, 7)
	// run executes prog over env and returns its rendered answer and the
	// accelerator builds it published.
	run := func(env mil.Env, cx context.Context) (string, int64, error) {
		before := bat.AccelBuilds()
		scope, traces, err := mil.Exec(mil.NewCtx(cx, mil.Options{Workers: 2}), prog, env)
		builds := bat.AccelBuilds() - before
		if err != nil {
			return "", builds, err
		}
		if algo := traces[1].Algo; algo != "hash-semijoin" {
			t.Fatalf("semijoin took %s, want hash-semijoin (a build on the base BAT's head)", algo)
		}
		var sb strings.Builder
		u := scope.Vars["u"]
		for i := 0; i < u.Len(); i++ {
			fmt.Fprintf(&sb, "%v %v\n", u.HeadValue(i), u.TailValue(i))
		}
		return sb.String(), builds, nil
	}

	// Clean reference: the builds of a cold run, then of a warm one.
	refEnv, _ := tpcd.Load(gen)
	want, buildsCold, err := run(refEnv, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, buildsWarm, err := run(refEnv, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if buildsWarm >= buildsCold {
		t.Fatalf("warm run built %d, cold run %d: the program builds no shared accelerator", buildsWarm, buildsCold)
	}

	// Cancel when the semijoin, the statement that builds the index, starts.
	env, _ := tpcd.Load(gen)
	cx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	armed.Store(true)
	mil.SetExecHook(func(i int, op string) {
		if op == mil.OpSemijoin && armed.CompareAndSwap(true, false) {
			cancel()
		}
	})
	_, delta1, err := run(env, cx)
	mil.SetExecHook(nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run got %v, want context.Canceled", err)
	}
	got, delta2, err := run(env, context.Background())
	if err != nil {
		t.Fatalf("retry after cancel failed: %v", err)
	}
	if got != want {
		t.Fatal("retry after cancel answered differently from a clean run: the cancelled build published a broken index")
	}
	if delta1 != 0 || delta2 != buildsCold {
		t.Fatalf("cancel+retry published %d+%d builds, want 0+%d: the cancelled build ran to completion, or was double-built or lost",
			delta1, delta2, buildsCold)
	}
	if _, delta3, err := run(env, context.Background()); err != nil || delta3 != buildsWarm {
		t.Fatalf("post-retry run built %d (%v), warm runs build %d", delta3, err, buildsWarm)
	}
}

// chaosPlan is the fault schedule of one chaos run, injected at the
// interpreter's statement seam (mil.SetExecHook), which fires on the served
// path as on every other: the hook panics before every failEvery-th
// statement the process executes and sleeps delay before every
// delayEvery-th, counting from the run's seed. Zero cadences inject
// nothing. paged puts a simulated buffer pool under the database, so the
// conservation check has faults and hits to balance; without one the run
// is the query service's own configuration.
type chaosPlan struct {
	failEvery, delayEvery uint64
	delay                 time.Duration
	paged                 bool
}

// chaosFault is the panic value of an injected statement fault.
type chaosFault struct{ stmt uint64 }

// chaosRun drives sessions over the mix while cancellations, deadlines and
// the plan's injected panics and delays fire, then asserts the survivors
// are bit-identical to the sequential reference and the shared state
// balances exactly: zero live gauge bytes and Σ per-query faults/hits —
// successes AND failures — equal to the pool's counters.
func chaosRun(t *testing.T, seed int64, plan chaosPlan, want []string) {
	t.Helper()
	newService := testService
	if plan.paged {
		newService = testServicePaged
	}
	svc, mix := newService(t, Config{Workers: 2, MaxConcurrent: 8})
	var stmts, panics, delays atomic.Uint64
	stmts.Store(uint64(seed))
	if plan.failEvery > 0 || plan.delayEvery > 0 {
		mil.SetExecHook(func(int, string) {
			n := stmts.Add(1)
			if plan.delayEvery > 0 && n%plan.delayEvery == 0 {
				delays.Add(1)
				time.Sleep(plan.delay)
			}
			if plan.failEvery > 0 && n%plan.failEvery == 0 {
				panics.Add(1)
				panic(chaosFault{n})
			}
		})
	}

	const sessions = 8
	type tally struct {
		faults, hits                     uint64
		ok, canceled, timedOut, internal int64
		unexpected                       []string
	}
	tallies := make([]tally, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
			tl := &tallies[s]
			for i := range mix {
				qi := (i + s) % len(mix)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(3) {
				case 1: // tight deadline: may expire mid-operator
					ctx, cancel = context.WithTimeout(ctx, time.Duration(200+rng.Intn(3000))*time.Microsecond)
				case 2: // asynchronous disconnect
					ctx, cancel = context.WithCancel(ctx)
					timer := time.AfterFunc(time.Duration(100+rng.Intn(2000))*time.Microsecond, cancel)
					defer timer.Stop()
				}
				res, err := svc.Query(ctx, mix[qi])
				f, h, counted := lifecycleStats(res, err)
				if !counted {
					tl.unexpected = append(tl.unexpected, fmt.Sprintf("Q%d: %v", qi, err))
					cancel()
					continue
				}
				tl.faults += f
				tl.hits += h
				switch {
				case err == nil:
					tl.ok++
					if got := moa.RenderVal(res.Set); got != want[qi] {
						tl.unexpected = append(tl.unexpected, fmt.Sprintf("Q%d diverged from sequential reference", qi))
					}
				case errors.Is(err, context.DeadlineExceeded):
					tl.timedOut++
				case errors.Is(err, context.Canceled):
					tl.canceled++
				default:
					var pe *mil.PanicError
					if !errors.As(err, &pe) {
						tl.unexpected = append(tl.unexpected, fmt.Sprintf("Q%d: %v", qi, err))
					} else if _, ok := pe.Value.(chaosFault); !ok {
						tl.unexpected = append(tl.unexpected, fmt.Sprintf("Q%d: panic not injected: %v", qi, err))
					}
					tl.internal++ // contained injected fault
				}
				cancel()
			}
		}(s)
	}
	wg.Wait()
	mil.SetExecHook(nil)

	var faults, hits uint64
	var ok, disrupted, internal int64
	for s := range tallies {
		tl := &tallies[s]
		for _, msg := range tl.unexpected {
			t.Errorf("session %d: %s", s, msg)
		}
		faults += tl.faults
		hits += tl.hits
		ok += tl.ok
		disrupted += tl.canceled + tl.timedOut
		internal += tl.internal
	}
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("%d statements: %d panics and %d delays injected; %d ok, %d disrupted, %d internal",
		stmts.Load()-uint64(seed), panics.Load(), delays.Load(), ok, disrupted, internal)
	if ok == 0 {
		t.Fatal("chaos run had no survivors: nothing verified")
	}

	// Quiesce invariants: no leaked intermediate bytes, exact fault/hit
	// conservation across successes and failures alike.
	if live := svc.Gauge().Live(); live != 0 {
		t.Fatalf("gauge holds %d live bytes at quiesce (ok=%d disrupted=%d internal=%d)", live, ok, disrupted, internal)
	}
	p := svc.db.Pager
	if p.Faults() != faults || p.Hits() != hits {
		t.Fatalf("conservation broken: pool %d/%d faults/hits, per-query sums %d/%d (ok=%d disrupted=%d internal=%d)",
			p.Faults(), p.Hits(), faults, hits, ok, disrupted, internal)
	}
	if plan.failEvery > 0 && panics.Load() == 0 || plan.delayEvery > 0 && delays.Load() == 0 {
		t.Fatalf("chaos plan injected %d panics and %d delays over %d statements: a cadence never fired",
			panics.Load(), delays.Load(), stmts.Load()-uint64(seed))
	}
	if internal != int64(panics.Load()) {
		t.Fatalf("%d queries failed internally, %d panics injected", internal, panics.Load())
	}

	// The server keeps serving: a clean full pass after the storm, on the
	// same service, still matches the sequential reference.
	for qi, q := range mix {
		res, err := svc.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("post-chaos Q%d failed: %v", qi, err)
		}
		if got := moa.RenderVal(res.Set); got != want[qi] {
			t.Fatalf("post-chaos Q%d diverged from sequential reference", qi)
		}
	}
	if live := svc.Gauge().Live(); live != 0 {
		t.Fatalf("gauge holds %d bytes after post-chaos pass", live)
	}
}

// TestCancellationCleanliness: eight sessions run the Figure-9 mix while
// randomized cancellations and deadlines land at arbitrary points —
// including mid-singleflight-build — with no fault injection. Every
// disrupted query unwinds cleanly.
func TestCancellationCleanliness(t *testing.T) {
	want := referenceResults(t)
	chaosRun(t, 11, chaosPlan{paged: true}, want)
}

// chaosSeeds reads the chaos seeds from CHAOS_SEEDS (comma-separated
// int64s); the default keeps `go test` deterministic while CI injects
// fresh seeds per run.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, s := range strings.Split(env, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: bad seed %q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestChaosQueryLifecycle: the full chaos suite over a seed list —
// cancellations, deadlines, injected statement panics and injected
// latency, all at once, under -race via the CI matrix. Odd seeds run over
// a simulated buffer pool, even seeds on the query service's own
// configuration, which has none; two consecutive seeds cover both.
func TestChaosQueryLifecycle(t *testing.T) {
	want := referenceResults(t)
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRun(t, seed, chaosPlan{
				failEvery:  199,
				delayEvery: 11,
				delay:      200 * time.Microsecond,
				paged:      seed%2 != 0,
			}, want)
		})
	}
}

// TestHTTPLifecycle: the HTTP surface of the failure model — ?timeout=
// parsing, 504 with kind "timeout", 500 with kind "internal" on a contained
// panic (server keeps serving), and the new lifecycle metrics.
func TestHTTPLifecycle(t *testing.T) {
	svc, mix := testServicePaged(t, Config{MaxConcurrent: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path string) (int, ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(mix[0]))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}

	// Malformed timeout → 400 bad_request.
	if code, er := post("/query?timeout=banana"); code != http.StatusBadRequest || er.Kind != "bad_request" {
		t.Fatalf("bad timeout: %d %+v", code, er)
	}

	// Deadline expiry → 504 timeout. The hook slows every statement.
	mil.SetExecHook(func(i int, op string) { time.Sleep(4 * time.Millisecond) })
	if code, er := post("/query?timeout=10ms&noresult=1"); code != http.StatusGatewayTimeout || er.Kind != "timeout" {
		t.Fatalf("timeout: %d %+v", code, er)
	}
	mil.SetExecHook(nil)

	// Contained panic → 500 internal; the server keeps serving afterwards.
	type httpFault struct{}
	var armed atomic.Bool
	armed.Store(true)
	mil.SetExecHook(func(i int, op string) {
		if armed.CompareAndSwap(true, false) {
			panic(httpFault{})
		}
	})
	if code, er := post("/query?noresult=1"); code != http.StatusInternalServerError || er.Kind != "internal" {
		t.Fatalf("contained panic: %d %+v", code, er)
	}
	mil.SetExecHook(nil)
	if code, _ := post("/query?noresult=1"); code != http.StatusOK {
		t.Fatalf("server stopped serving after contained panic: %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := func() ([]byte, error) {
		defer resp.Body.Close()
		b := new(strings.Builder)
		_, e := copyBody(b, resp.Body)
		return []byte(b.String()), e
	}()
	for _, metric := range []string{"moaserve_canceled_total", "moaserve_timeouts_total 1", "moaserve_panics_total 1"} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, body)
		}
	}
}

func copyBody(dst *strings.Builder, src interface{ Read([]byte) (int, error) }) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := src.Read(buf)
		dst.Write(buf[:k])
		n += int64(k)
		if err != nil {
			return n, nil
		}
	}
}
