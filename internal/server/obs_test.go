package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/storage"
	"repro/internal/storage/heapfile"
	"repro/internal/tpcd"
)

// TestHistogramConservation is the PR's service-level accounting experiment:
// after an 8-session concurrent run over the Figure-9 mix, the latency
// histogram must have observed exactly the queries the service counted —
// Σ buckets == _count == moaserve_queries_total, no observation lost or
// double-counted under contention. Run under -race this also sweeps the
// lock-free histogram for data races.
func TestHistogramConservation(t *testing.T) {
	svc, mix := testService(t, Config{Workers: 2, MaxConcurrent: 8})
	const sessions = 8
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range mix {
				if _, err := svc.Query(context.Background(), mix[(i+s)%len(mix)]); err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	queries := svc.queries.Load()
	if want := int64(sessions * len(mix)); queries != want {
		t.Fatalf("queries counter %d, want %d", queries, want)
	}
	snap := svc.histLatency.Snapshot()
	var sum uint64
	for _, b := range snap.Buckets {
		sum += b
	}
	if sum != snap.Count {
		t.Errorf("latency histogram buckets sum %d != count %d", sum, snap.Count)
	}
	if snap.Count != uint64(queries) {
		t.Errorf("latency histogram count %d != queries counter %d", snap.Count, queries)
	}
	// The wait histograms observe every admitted attempt: at least every
	// successful query passed both phases.
	if c := svc.histSlot.Snapshot().Count; c < uint64(queries) {
		t.Errorf("slot-wait histogram count %d < queries %d", c, queries)
	}
	if c := svc.histAdmit.Snapshot().Count; c < uint64(queries) {
		t.Errorf("admission-wait histogram count %d < queries %d", c, queries)
	}

	// The same conservation must hold through the /metrics exposition.
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"moaserve_query_seconds_bucket{le=\"+Inf\"} ",
		"moaserve_query_seconds_count ",
		"moaserve_slot_wait_seconds_count ",
		"moaserve_admission_wait_seconds_count ",
		"moaserve_result_seconds_count ",
		"moaserve_goroutines ",
		"moaserve_heap_alloc_bytes ",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if !strings.Contains(body, "moaserve_query_seconds_count "+itoa(queries)+"\n") {
		t.Errorf("/metrics moaserve_query_seconds_count != %d:\n%s", queries, grepLines(body, "query_seconds_count"))
	}
}

// TestIngestHistogramConservation is the write-path twin: after concurrent
// durable ingests quiesce, the ingest histogram has observed exactly the
// ingests the service counted (Σ buckets == _count ==
// moaserve_ingests_total), and the checkpoint histogram exactly the
// checkpoints the cadence schedules.
func TestIngestHistogramConservation(t *testing.T) {
	svc, _, gen := writableService(t, Config{MaxConcurrent: 4}, t.TempDir()) // SnapshotEvery = 4
	written0, _ := heapfile.CommittedBytes()
	const writers, each = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p, err := tpcd.EncodeRefresh(tpcd.GenRefresh(gen, int64(100*w+i), 5))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := svc.Ingest(p); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ingests := svc.ingests.Load()
	if ingests != writers*each {
		t.Fatalf("ingests counter %d, want %d", ingests, writers*each)
	}
	snap := svc.histIngest.Snapshot()
	var sum uint64
	for _, b := range snap.Buckets {
		sum += b
	}
	if sum != snap.Count || snap.Count != uint64(ingests) {
		t.Errorf("ingest histogram buckets sum %d, count %d, ingests counter %d: want all equal", sum, snap.Count, ingests)
	}

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	written, linked := heapfile.CommittedBytes()
	if written-written0 <= 0 {
		t.Errorf("%d checkpoints wrote %d bytes, want > 0", ingests/4, written-written0)
	}
	for _, want := range []string{
		"moaserve_checkpoint_bytes_total{how=\"written\"} " + itoa(written) + "\n",
		"moaserve_checkpoint_bytes_total{how=\"linked\"} " + itoa(linked) + "\n",
		"moaserve_ingests_total " + itoa(ingests) + "\n",
		"moaserve_ingest_seconds_bucket{le=\"+Inf\"} " + itoa(ingests) + "\n",
		"moaserve_ingest_seconds_count " + itoa(ingests) + "\n",
		"moaserve_checkpoint_seconds_count " + itoa(ingests/4) + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(body, "ingest"))
		}
	}
}

// TestCheckpointFailureCounted: a failed ingest-time checkpoint (here a
// SaveEnv that fails once, as on a full disk) must not fail the ingest —
// the WAL already made it durable — but must show on /metrics, and the
// next checkpoint must succeed and rotate the WAL.
func TestCheckpointFailureCounted(t *testing.T) {
	gen := tpcd.Generate(0.002, 7)
	genesis, _ := tpcd.Load(gen)
	var saves atomic.Int64
	st, err := epoch.Open(epoch.Options{
		Dir:     t.TempDir(),
		Meta:    []byte("checkpoint-failure"),
		Genesis: func() mil.Env { return genesis },
		Apply: func(base mil.Env, p []byte) (mil.Env, int64, error) {
			b, err := tpcd.DecodeRefresh(p)
			if err != nil {
				return nil, 0, err
			}
			return tpcd.ApplyRefresh(base, b)
		},
		SaveEnv: func(tmpDir, _ string, _ mil.Env) error {
			if saves.Add(1) == 1 {
				return errors.New("no space left on device")
			}
			return os.MkdirAll(tmpDir, 0o755)
		},
		LoadEnv:       func(string) (mil.Env, error) { return nil, errors.New("never read back here") },
		SnapshotEvery: 1,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	svc := New(engine.New(tpcd.Schema(), st.Manager().Current().Env), Config{})
	svc.AttachStore(st)

	ingestOrders(t, svc, gen, 1, 5) // acknowledged although its checkpoint fails
	if got := st.CheckpointFailures(); got != 1 {
		t.Fatalf("checkpoint failures %d after the failing save, want 1", got)
	}
	unrotated := st.WALBytes()
	ingestOrders(t, svc, gen, 2, 5)
	if got := st.WALBytes(); got >= unrotated {
		t.Fatalf("WAL holds %d bytes after a successful checkpoint, want fewer than the %d it held unrotated", got, unrotated)
	}

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"moaserve_checkpoint_failures_total 1\n",
		"moaserve_checkpoint_seconds_count 2\n",
		"moaserve_recovery_seconds 0.000000\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(body, "checkpoint"))
		}
	}
}

func itoa(n int64) string {
	var b []byte
	if n == 0 {
		return "0"
	}
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// testServicePaged builds a service whose database runs behind a shared
// buffer pool, so per-statement fault attribution has something to count.
func testServicePaged(t *testing.T, cfg Config) (*Service, []string) {
	t.Helper()
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	db := engine.New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, 0)
	var mix []string
	for _, q := range tpcd.Queries(gen) {
		mix = append(mix, q.MOA)
	}
	return New(db, cfg), mix
}

// TestStatementDeltasConserve pins the profiler's central claim: the
// per-statement fault and hit deltas (tracker snapshots at statement
// boundaries) sum bit-exactly to the query's own totals — nothing a query
// touched escapes its statement attribution — and so do the bytes each
// statement's result was charged, to the query's intermediates.
func TestStatementDeltasConserve(t *testing.T) {
	svc, mix := testServicePaged(t, Config{MaxConcurrent: 4})
	for round := 0; round < 2; round++ {
		for qi, src := range mix {
			res, prof, err := svc.QueryProfiled(context.Background(), src, QueryOpts{Profile: true})
			if err != nil {
				t.Fatalf("Q%d: %v", qi, err)
			}
			if prof == nil {
				t.Fatalf("Q%d: no profile returned", qi)
			}
			var faults, hits uint64
			var outBytes int64
			for _, st := range prof.Statements {
				faults += st.Faults
				hits += st.Hits
				outBytes += st.OutBytes
			}
			if faults != res.Stats.Faults {
				t.Errorf("Q%d round %d: statement faults sum %d != query total %d",
					qi, round, faults, res.Stats.Faults)
			}
			if hits != res.Stats.Hits {
				t.Errorf("Q%d round %d: statement hits sum %d != query total %d",
					qi, round, hits, res.Stats.Hits)
			}
			if outBytes <= 0 || outBytes != res.Stats.IntermBytes {
				t.Errorf("Q%d round %d: statements charged %d bytes, query intermediates %d",
					qi, round, outBytes, res.Stats.IntermBytes)
			}
			var builds int
			var buildNs int64
			for _, st := range prof.Statements {
				builds += st.AccelBuilds
				buildNs += st.AccelBuildNs
			}
			if builds != prof.AccelBuilds || buildNs != prof.AccelBuildNs {
				t.Errorf("Q%d round %d: statement builds %d/%dns != profile totals %d/%dns",
					qi, round, builds, buildNs, prof.AccelBuilds, prof.AccelBuildNs)
			}
		}
	}
}

// TestProfileShape exercises the profile: it must carry a complete phase
// breakdown and one statement row per trace. The second identical request
// must read as a plan-cache hit.
func TestProfileShape(t *testing.T) {
	svc, mix := testServicePaged(t, Config{MaxConcurrent: 2})
	src := mix[2] // Q3: selects, joins, accelerator builds — a rich trace
	for i, wantHit := range []bool{false, true} {
		res, prof, err := svc.QueryProfiled(context.Background(), src, QueryOpts{Profile: true, RequestID: "req-x"})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if prof.RequestID != "req-x" {
			t.Errorf("query %d: request id %q not echoed", i, prof.RequestID)
		}
		if prof.PlanCacheHit != wantHit {
			t.Errorf("query %d: plan_cache_hit=%v, want %v", i, prof.PlanCacheHit, wantHit)
		}
		if prof.TotalNs <= 0 || prof.ExecNs <= 0 || prof.MaterializeNs <= 0 {
			t.Errorf("query %d: degenerate phase breakdown %+v", i, prof)
		}
		if sum := phaseSum(prof); sum != prof.TotalNs {
			t.Errorf("query %d: phases sum to %dns, total %dns", i, sum, prof.TotalNs)
		}
		if len(prof.Statements) == 0 || len(prof.Statements) != len(res.Traces) {
			t.Errorf("query %d: %d profile statements, %d traces", i, len(prof.Statements), len(res.Traces))
		}
		if prof.PeakBytes != res.Stats.PeakBytes || prof.IntermBytes != res.Stats.IntermBytes {
			t.Errorf("query %d: profile bytes diverge from stats", i)
		}
	}

	// Profile off: no profile, and no dispatch stats accumulate.
	res, prof, err := svc.QueryProfiled(context.Background(), src, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if prof != nil {
		t.Error("profile returned without opts.Profile")
	}
	for _, tr := range res.Traces {
		if tr.Workers != 0 || tr.Morsels != 0 {
			t.Errorf("dispatch stats recorded with profiling off: %+v", tr)
		}
	}
}

// phaseSum adds a profile's six phases.
func phaseSum(p *Profile) int64 {
	return p.SlotWaitNs + p.AdmissionNs + p.PlanNs + p.ExecNs + p.MaterializeNs + p.RenderNs
}

// TestProfileHTTP round-trips ?profile=1 through the HTTP front end: the
// JSON response must embed the profile, echo the request id in body and
// header, and keep the statement table intact; its phases, the render
// phase included, sum exactly to its total, and every served answer is one
// observation of the result-phase histogram.
func TestProfileHTTP(t *testing.T) {
	svc, mix := testServicePaged(t, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query?profile=1&noresult=1", strings.NewReader(mix[2]))
	req.Header.Set("X-Request-Id", "cafe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "cafe-1" {
		t.Errorf("X-Request-Id header %q, want cafe-1", got)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RequestID != "cafe-1" {
		t.Errorf("request_id %q, want cafe-1", qr.RequestID)
	}
	if qr.Profile == nil {
		t.Fatal("no profile in ?profile=1 response")
	}
	if len(qr.Profile.Statements) == 0 {
		t.Error("profile has no statements")
	}
	var faults uint64
	claims := 0
	for _, st := range qr.Profile.Statements {
		faults += st.Faults
		if st.Props != "none" {
			claims++
		}
	}
	if faults != qr.Faults {
		t.Errorf("profile statement faults %d != response faults %d", faults, qr.Faults)
	}
	// Base attribute BATs are dense- or tail-ordered, so some statement's
	// result claims a property.
	if claims == 0 {
		t.Error("no statement in the profile reports its result's props")
	}

	// Without ?profile= the response must not carry one, but still echoes a
	// server-generated request id.
	resp2, err := http.Post(ts.URL+"/query?noresult=1", "text/plain", strings.NewReader(mix[2]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var qr2 QueryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&qr2); err != nil {
		t.Fatal(err)
	}
	if qr2.Profile != nil {
		t.Error("profile present without ?profile=1")
	}
	if qr2.RequestID == "" || resp2.Header.Get("X-Request-Id") == "" {
		t.Error("no server-generated request id")
	}

	resp3, err := http.Post(ts.URL+"/query?profile=1", "text/plain", strings.NewReader(mix[2]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var qr3 QueryResponse
	if err := json.NewDecoder(resp3.Body).Decode(&qr3); err != nil {
		t.Fatal(err)
	}
	if p := qr3.Profile; p == nil || len(qr3.Elems) == 0 || p.RenderNs <= 0 || phaseSum(p) != p.TotalNs {
		t.Errorf("rendered answer's profile: %d elements, %+v", len(qr3.Elems), p)
	}
	if c := svc.histResult.Snapshot().Count; c != 3 {
		t.Errorf("result-phase histogram observed %d answers, want 3", c)
	}
}

// TestSlowQueryLog arms the slow-query log with a zero-distance threshold:
// every query must emit exactly one parseable JSONL profile record carrying
// the request id, even though the client never asked for a profile.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	db := engine.New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, 0)
	svc := New(db, Config{MaxConcurrent: 2, SlowQuery: time.Nanosecond, SlowQueryLog: &buf})

	queries := tpcd.Queries(gen)
	const n = 3
	for i := 0; i < n; i++ {
		if _, prof, err := svc.QueryProfiled(context.Background(), queries[i].MOA, QueryOpts{RequestID: "slow-req"}); err != nil {
			t.Fatal(err)
		} else if prof != nil {
			t.Error("profile returned to a caller that did not ask")
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("%d slow-query records, want %d:\n%s", len(lines), n, buf.String())
	}
	for i, line := range lines {
		var p Profile
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("record %d not valid JSON: %v\n%s", i, err, line)
		}
		if p.RequestID != "slow-req" {
			t.Errorf("record %d: request id %q", i, p.RequestID)
		}
		if p.Query == "" || len(p.Statements) == 0 || p.TotalNs <= 0 {
			t.Errorf("record %d: incomplete profile: %s", i, line)
		}
	}
}
