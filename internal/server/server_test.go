package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/engine"
	"repro/internal/moa"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// testService loads a fresh small TPC-D database (private base env per
// call, so accelerator warm-up in one test cannot leak into another) and
// returns the Figure-9 query mix alongside.
func testService(t *testing.T, cfg Config) (*Service, []string) {
	t.Helper()
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	db := engine.New(tpcd.Schema(), env)
	var mix []string
	for _, q := range tpcd.Queries(gen) {
		mix = append(mix, q.MOA)
	}
	return New(db, cfg), mix
}

// TestConcurrentSessionsBitIdentical is the PR's central correctness
// experiment: N sessions executing the mixed Figure-9 suite concurrently
// over one shared base Env must each produce exactly the result a single
// sequential session produces. Run under -race, this also sweeps the
// shared-state paths (accelerator publication, plan cache,
// memory gauge) for data races.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	// Sequential reference: a private database instance.
	gen := tpcd.Generate(0.002, 7)
	envSeq, _ := tpcd.Load(gen)
	dbSeq := engine.New(tpcd.Schema(), envSeq)
	queries := tpcd.Queries(gen)
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := dbSeq.Query(q.MOA)
		if err != nil {
			t.Fatalf("sequential Q%d: %v", q.Num, err)
		}
		want[i] = moa.RenderVal(res.Set)
	}

	// Concurrent sessions share one service (and so one base env).
	svc, mix := testService(t, Config{Workers: 2, MaxConcurrent: 8})
	const sessions = 8
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each session walks the mix at its own offset, so at any
				// instant different queries are in flight.
				for i := range mix {
					qi := (i + s) % len(mix)
					res, err := svc.Query(context.Background(), mix[qi])
					if err != nil {
						errs <- err
						return
					}
					if got := moa.RenderVal(res.Set); got != want[qi] {
						t.Errorf("session %d round %d Q%d diverged from sequential result", s, r, queries[qi].Num)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := svc.Snapshot(); m.Queries != sessions*rounds*int64(len(mix)) {
		t.Fatalf("completed %d queries, want %d", m.Queries, sessions*rounds*len(mix))
	}
}

// TestSingleflightAcceleratorBuilds: after a warm-up pass, one sequential
// pass over the mix performs a fixed number of accelerator builds D (all on
// per-query intermediates — every shared base accelerator already exists
// and is never rebuilt). N concurrent sessions running M passes each must
// then perform exactly N*M*D builds: any duplicated or racing build of a
// shared accelerator would push the count higher.
func TestSingleflightAcceleratorBuilds(t *testing.T) {
	svc, mix := testService(t, Config{Workers: 2, MaxConcurrent: 8})
	pass := func() {
		for _, q := range mix {
			if _, err := svc.Query(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm-up: builds every shared base accelerator once

	before := bat.AccelBuilds()
	pass()
	perPass := bat.AccelBuilds() - before
	// A second measured pass must match: per-pass builds are deterministic
	// once the shared accelerators exist.
	before = bat.AccelBuilds()
	pass()
	if d := bat.AccelBuilds() - before; d != perPass {
		t.Fatalf("sequential per-pass builds unstable: %d then %d", perPass, d)
	}

	const sessions, rounds = 6, 2
	before = bat.AccelBuilds()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pass()
			}
		}()
	}
	wg.Wait()
	got := bat.AccelBuilds() - before
	want := int64(sessions*rounds) * perPass
	if got != want {
		t.Fatalf("concurrent phase ran %d accelerator builds, want %d (%d sessions × %d rounds × %d per pass): shared builds were duplicated or lost",
			got, want, sessions, rounds, perPass)
	}
}

// TestPlanCacheSingleflight: a cold-cache stampede of the same source
// prepares once; distinct sources prepare independently.
func TestPlanCacheSingleflight(t *testing.T) {
	svc, mix := testService(t, Config{MaxConcurrent: 8})
	const g = 8
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Query(context.Background(), mix[0]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, misses, _ := svc.plans.stats(); misses != 1 {
		t.Fatalf("stampede prepared %d times, want 1", misses)
	}
	if _, err := svc.Query(context.Background(), mix[1]); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := svc.plans.stats(); misses != 2 || hits != g-1 {
		t.Fatalf("hits=%d misses=%d, want hits=%d misses=2", hits, misses, g-1)
	}
	// Errors are cached outcomes too.
	if _, err := svc.Query(context.Background(), "select[=("); err == nil {
		t.Fatal("bad source must fail")
	}
	if _, err := svc.Query(context.Background(), "select[=("); err == nil {
		t.Fatal("cached bad source must still fail")
	}
}

// TestAdmissionControlSheds: with the gauge at the budget, query start is
// refused with the typed overload error; under the budget it proceeds.
func TestAdmissionControlSheds(t *testing.T) {
	svc, mix := testService(t, Config{MemBudgetBytes: 1 << 20, MaxConcurrent: 2})
	svc.Gauge().Add(1 << 20) // external reservation pins the gauge at budget
	_, err := svc.Query(context.Background(), mix[0])
	if !errors.As(err, new(*OverloadedError)) {
		t.Fatalf("expected overload refusal, got %v", err)
	}
	var oe *OverloadedError
	if !errorsAsOverloaded(err, &oe) || oe.Budget != 1<<20 || oe.Live < 1<<20 {
		t.Fatalf("overload error carries wrong state: %+v", oe)
	}
	if m := svc.Snapshot(); m.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Shed)
	}
	svc.Gauge().Add(-(1 << 20))
	if _, err := svc.Query(context.Background(), mix[0]); err != nil {
		t.Fatalf("query under budget failed: %v", err)
	}
	// All intermediate memory returns to the gauge after the query.
	if live := svc.Gauge().Live(); live != 0 {
		t.Fatalf("gauge leaks %d live bytes after query end", live)
	}
}

func errorsAsOverloaded(err error, target **OverloadedError) bool {
	oe, ok := err.(*OverloadedError)
	if ok {
		*target = oe
	}
	return ok
}

// TestHTTPEndpoints drives the HTTP front end: query round-trip, metrics
// exposition, the 503 + Retry-After overload contract clients back off on,
// and the plan-eviction series (a one-plan cache forces LRU evictions).
func TestHTTPEndpoints(t *testing.T) {
	svc, mix := testService(t, Config{MemBudgetBytes: 1 << 20, MaxConcurrent: 4, MaxPlans: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(mix[0]))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	direct, err := svc.Query(context.Background(), mix[0])
	if err != nil {
		t.Fatal(err)
	}
	if qr.Count != len(direct.Set.Elems) || len(qr.Elems) != qr.Count {
		t.Fatalf("HTTP result count %d (rendered %d), direct %d", qr.Count, len(qr.Elems), len(direct.Set.Elems))
	}

	// Bad source → 400 with an error body.
	resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader("select[=("))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad source status %d, want 400", resp.StatusCode)
	}

	// Overload → 503 + Retry-After (whole seconds, ≥ 1) and a typed body.
	svc.Gauge().Add(1 << 20)
	resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader(mix[0]))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("overload Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if er.Kind != "overloaded" || !er.Overloaded {
		t.Fatalf("overload body %+v, want kind overloaded with overloaded:true", er)
	}
	svc.Gauge().Add(-(1 << 20))

	// Under budget again, two distinct queries through the one-plan cache:
	// each insertion evicts the previous plan.
	for _, src := range mix[:2] {
		resp, err = http.Post(ts.URL+"/query?noresult=1", "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query under budget: status %d", resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"moaserve_queries_total", "moaserve_shed_total", "moaserve_plan_cache_hits_total", "moaserve_live_intermediate_bytes"} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("metrics missing %s:\n%s", metric, body)
		}
	}

	// The eviction family is labelled by reason only, so sum() over it is
	// the real eviction count.
	m := svc.Snapshot()
	if m.PlanEvictLRU == 0 {
		t.Fatal("a one-plan cache served distinct queries without an LRU eviction")
	}
	var evictions int64
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "moaserve_plan_cache_evictions_total") {
			continue
		}
		if !strings.HasPrefix(name, "moaserve_plan_cache_evictions_total{reason=") {
			t.Fatalf("unlabelled eviction sample %q double-counts the family", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("eviction sample %q: %v", line, err)
		}
		evictions += n
	}
	if evictions != m.PlanEvictions {
		t.Fatalf("labelled eviction samples sum to %d, want %d", evictions, m.PlanEvictions)
	}
}

// TestOversizedBodyRefused: a body over the endpoint's limit is answered
// 413, never truncated to the limit and then served. The /query body is a
// valid query padded past the limit and followed by garbage, streamed
// without a declared length, so the limit trips while reading; the /ingest
// request declares a length past its limit and sends no body, so it must be
// refused before anything is read.
func TestOversizedBodyRefused(t *testing.T) {
	svc, _ := testService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	padded := io.MultiReader(strings.NewReader("count(Order)"),
		strings.NewReader(strings.Repeat(" ", maxQueryBytes)), strings.NewReader(" this is not MOA"))
	resp, err := http.Post(ts.URL+"/query", "text/plain", padded)
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Kind != "bad_request" {
		t.Fatalf("oversized /query: %d %+v, want 413 bad_request", resp.StatusCode, er)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: moaserve\r\nContent-Length: %d\r\n\r\n", maxIngestBytes+1)
	resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("oversized /ingest: %v", err)
	}
	er = ErrorResponse{}
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Kind != "bad_request" {
		t.Fatalf("oversized /ingest: %d %+v, want 413 bad_request", resp.StatusCode, er)
	}
}

// TestServiceKeepsPagerFaultAccounting: when the caller attaches a pager to
// the database, sessions inherit it — the Figure 9/10 fault observable
// exists in the serving regime. Cold queries report faults in Stats (and
// over HTTP), and per-query attribution conserves into the pool totals.
// /metrics carries no simulated pager series, only the OS's own (_real).
func TestServiceKeepsPagerFaultAccounting(t *testing.T) {
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	db := engine.New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, 0)
	svc := New(db, Config{MaxConcurrent: 4})
	queries := tpcd.Queries(gen)

	res, err := svc.Query(context.Background(), queries[0].MOA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults == 0 {
		t.Fatal("cold query reported 0 faults: the service stripped the pager")
	}
	var total uint64 = res.Stats.Faults
	const sessions = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var local uint64
			for i := 0; i < 4; i++ {
				r, err := svc.Query(context.Background(), queries[(i+s)%len(queries)].MOA)
				if err != nil {
					t.Error(err)
					return
				}
				local += r.Stats.Faults
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}(s)
	}
	wg.Wait()

	if got := db.Pager.Faults(); got != total {
		t.Fatalf("pool faults %d != sum of per-query faults %d", got, total)
	}
	if db.Pager.Resident() == 0 {
		t.Fatal("no pages resident after queries")
	}

	// The HTTP surface carries per-query faults in the query response;
	// /metrics reports real paging only.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query?noresult=1", "text/plain", strings.NewReader(queries[1].MOA))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"moaserve_pager_mapped_bytes_real ", "moaserve_pager_resident_bytes_real ",
		"moaserve_pager_faults_real_total ", "moaserve_pager_major_faults_real_total ",
		"moaserve_pager_minor_faults_real_total ", "moaserve_pager_residency_probed ",
		"moaserve_pager_rusage_ok ", "moaserve_wal_syncs_total", "moaserve_wal_group_commits_total",
	} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("metrics missing %s:\n%s", metric, body)
		}
	}
	for _, metric := range []string{
		"moaserve_pager_faults_total", "moaserve_pager_hits_total",
		"moaserve_pager_resident_pages", "moaserve_pager_thrash_ratio",
	} {
		if strings.Contains(string(body), metric) {
			t.Fatalf("metrics still carry the simulated series %s:\n%s", metric, body)
		}
	}
}
