package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/bat"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/obs"
)

// statusClientClosedRequest is the nginx-convention status for a query
// stopped because the client went away: no standard code fits (the response
// usually cannot be delivered anyway, but the code keeps logs and tests
// honest about why the query died).
const statusClientClosedRequest = 499

// Request body limits. A longer body is refused with 413, never truncated.
const (
	maxQueryBytes  = 1 << 20
	maxIngestBytes = 64 << 20
)

// QueryResponse is the JSON body of a successful /query call.
type QueryResponse struct {
	RequestID   string   `json:"request_id,omitempty"`
	Count       int      `json:"count"`
	Elems       []string `json:"elems,omitempty"`
	ElapsedUS   int64    `json:"elapsed_us"`
	Faults      uint64   `json:"faults"`
	IntermBytes int64    `json:"interm_bytes"`
	PeakBytes   int64    `json:"peak_bytes"`
	Trace       []string `json:"trace,omitempty"`
	Profile     *Profile `json:"profile,omitempty"`
}

// ErrorResponse is the JSON body of a failed /query call. Kind classifies
// the failure: "bad_request" (malformed request or program), "overloaded"
// (admission shed — retry after backoff), "timeout" (deadline expired),
// "canceled" (client went away), "internal" (contained server-side defect).
type ErrorResponse struct {
	RequestID  string `json:"request_id,omitempty"`
	Error      string `json:"error"`
	Kind       string `json:"kind,omitempty"`
	Overloaded bool   `json:"overloaded,omitempty"`
}

// Handler returns the service's HTTP front end:
//
//	POST /query        MOA source in the body (or ?q=), result as JSON;
//	                   ?noresult=1 counts the elements without rendering,
//	                   ?trace=1 adds the Fig. 10-style statement trace,
//	                   ?profile=1 adds the phase and statement profile,
//	                   ?timeout=DUR caps this query's wall clock (Go
//	                   duration; tightens but never loosens the server's
//	                   -query-timeout default);
//	                   413 for a body over 1 MiB,
//	                   503 + Retry-After when admission control sheds,
//	                   504 on deadline expiry, 499 on client disconnect,
//	                   500 on a contained internal error.
//	GET  /metrics      service counters, text format (one "name value" line
//	                   each, Prometheus-scrapable) plus the latency, wait
//	                   and result-phase histograms and Go runtime stats.
//	GET  /healthz      liveness probe.
//
// With Config.Pprof set, the standard net/http/pprof endpoints are mounted
// under /debug/pprof/.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requestID resolves this request's id — the client's X-Request-Id if it
// sent one, a fresh server-generated id otherwise — and echoes it on the
// response header so the caller can correlate the response (and any
// slow-query record) with its request.
func requestID(w http.ResponseWriter, r *http.Request) string {
	rid := r.Header.Get("X-Request-Id")
	if rid == "" {
		rid = newRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	return rid
}

// handleQuery serves POST /query. The answer is bound, never materialized:
// each element renders from the result's columns and is JSON-escaped into
// one pooled buffer, written once, byte for byte what encoding/json writes
// for QueryResponse. ?noresult=1 counts the elements and renders none.
// ?profile=1 adds the Profile: the phases slot_wait_ns, admission_ns,
// plan_ns, exec_ns (the MIL program), materialize_ns (binding the structure
// function to its result) and render_ns (rendering and encoding the
// elements) sum exactly to total_ns, which ends when the elements are
// encoded; materialize_ns + render_ns feed moaserve_result_seconds.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w, r)
	params := r.URL.Query()
	src := params.Get("q")
	if src == "" {
		body, ok := readBody(w, r, maxQueryBytes, rid)
		if !ok {
			return
		}
		src = string(body)
	}
	if src == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty query: pass MOA source as the request body or ?q="), "bad_request", rid)
		return
	}

	// The request context carries the client's lifecycle (disconnect =
	// cancellation); ?timeout= layers a per-request deadline on top. The
	// server-wide default deadline (Config.QueryTimeout) is applied inside
	// Query, so ?timeout= can only tighten it, never escape it.
	ctx := r.Context()
	if ts := params.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: want a positive Go duration (e.g. 250ms)", ts), "bad_request", rid)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	opts := QueryOpts{Profile: boolParam(params, "profile"), RequestID: rid}
	res, ph, err := s.execute(ctx, src, opts)
	if err != nil {
		var oe *OverloadedError
		var ce *engine.CanceledError
		var ee *ExecError
		switch {
		case errors.As(err, &oe):
			w.Header().Set("Retry-After", retryAfterSeconds(oe))
			writeError(w, http.StatusServiceUnavailable, err, "overloaded", rid)
		case errors.As(err, &ce):
			if errors.Is(err, context.DeadlineExceeded) {
				writeError(w, http.StatusGatewayTimeout, err, "timeout", rid)
			} else {
				writeError(w, statusClientClosedRequest, err, "canceled", rid)
			}
		case errors.As(err, &ee):
			// Past preparation: a server-side execution defect (including
			// contained panics), not a malformed request.
			writeError(w, http.StatusInternalServerError, err, "internal", rid)
		default:
			writeError(w, http.StatusBadRequest, err, "bad_request", rid)
		}
		return
	}

	// The body is QueryResponse as encoding/json writes it, built in one
	// pooled buffer and written once: each element renders straight from
	// the bound answer's columns and is JSON-escaped into the body; the
	// fields after the elements are encoding/json's own.
	rb := respBufs.Get().(*respBuf)
	buf := appendJSONString(append(rb.out[:0], `{"request_id":`...), []byte(rid))
	n := res.Bound.Len()
	buf = strconv.AppendInt(append(buf, `,"count":`...), int64(n), 10)
	if n > 0 && !boolParam(params, "noresult") {
		buf = append(buf, `,"elems":[`...)
		for i := 0; i < n; i++ {
			rb.elem = res.Bound.AppendElem(rb.elem[:0], i)
			buf = append(appendJSONString(buf, rb.elem), ',')
		}
		buf[len(buf)-1] = ']'
	}
	ph.renderWait = ph.mark()
	s.histResult.Observe(ph.matWait + ph.renderWait)
	resp := QueryResponse{
		ElapsedUS:   res.Stats.Elapsed.Microseconds(),
		Faults:      res.Stats.Faults,
		IntermBytes: res.Stats.IntermBytes,
		PeakBytes:   res.Stats.PeakBytes,
		Profile:     s.finish(ph, opts, src, res),
	}
	if boolParam(params, "trace") {
		resp.Trace = make([]string, len(res.Traces))
		for i, tr := range res.Traces {
			resp.Trace[i] = tr.String()
		}
	}
	rest, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err, "internal", rid)
		return
	}
	rb.out = append(append(buf, rest[bytes.Index(rest, []byte(`,"elapsed_us":`)):]...), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(rb.out)
	if cap(rb.out)+cap(rb.elem) <= maxPooledResponse {
		respBufs.Put(rb)
	}
}

// respBuf is a pooled response: the body, and the scratch one element
// renders into before it is escaped into the body.
type respBuf struct{ out, elem []byte }

var respBufs = sync.Pool{New: func() any { return new(respBuf) }}

// maxPooledResponse caps the buffers kept for reuse: one huge answer's
// memory goes back to the collector instead of staying pinned in the pool.
const maxPooledResponse = 4 << 20

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (its default): the escapes of jsonEscapes,
// U+2028 and U+2029 escaped, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		var esc string
		size := 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = jsonEscapes[c]
		} else {
			var r rune
			switch r, size = utf8.DecodeRune(s[i:]); {
			case r == utf8.RuneError && size == 1:
				esc = `\ufffd`
			case r == '\u2028':
				esc = `\u2028`
			case r == '\u2029':
				esc = `\u2029`
			}
		}
		if esc != "" {
			dst = append(append(dst, s[start:i]...), esc...)
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// jsonEscapes holds encoding/json's escape of each ASCII byte it escapes:
// control characters, the quote, the backslash, and <, > and &.
var jsonEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range t {
		if c < ' ' || c == '<' || c == '>' || c == '&' {
			t[c] = fmt.Sprintf(`\u%04x`, c)
		}
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'], t['"'], t['\\'] = `\b`, `\f`, `\n`, `\r`, `\t`, `\"`, `\\`
	return t
}()

// IngestResponse is the JSON body of a successful /ingest call.
type IngestResponse struct {
	Epoch    uint64 `json:"epoch"`     // the epoch this ingest published
	WALBytes int64  `json:"wal_bytes"` // WAL segment size after the append
}

// handleIngest publishes one refresh batch as a new epoch. The body is
// either a concrete refresh batch or (when the service has a PrepareIngest
// translator) a generator directive like {"generate":100,"seed":42}. The
// batch is durable — WAL-appended and fsynced — before the 200 is written:
// an acknowledged ingest survives any crash.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w, r)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("ingest requires POST"), "bad_request", rid)
		return
	}
	payload, ok := readBody(w, r, maxIngestBytes, rid)
	if !ok {
		return
	}
	var err error
	if s.PrepareIngest != nil {
		if payload, err = s.PrepareIngest(payload); err != nil {
			writeError(w, http.StatusBadRequest, err, "bad_request", rid)
			return
		}
	}
	id, err := s.Ingest(payload)
	if err != nil {
		switch {
		case errors.Is(err, ErrReadOnly):
			writeError(w, http.StatusNotImplemented, err, "read_only", rid)
		case errors.Is(err, epoch.ErrStoreFailed):
			// The WAL and the applied state diverged; only a restart (which
			// replays the log) reconciles them. Refuse writes until then.
			writeError(w, http.StatusServiceUnavailable, err, "store_failed", rid)
		case errors.Is(err, epoch.ErrRejected):
			writeError(w, http.StatusBadRequest, err, "bad_request", rid)
		default:
			writeError(w, http.StatusInternalServerError, err, "internal", rid)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IngestResponse{Epoch: id, WALBytes: s.store.WALBytes()})
}

// readBody reads the request body, answering 413 for one over limit bytes:
// up front when the client declares its length, else once reading passes
// the limit. It reports whether the handler may go on.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, rid string) ([]byte, bool) {
	var body []byte
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err, "bad_request", rid)
		return nil, false
	}
	return body, true
}

// boolParam reads a flag-style query parameter: set and not one of the
// explicit "off" spellings ("0", "false", "no") means on.
func boolParam(params url.Values, name string) bool {
	switch params.Get(name) {
	case "", "0", "false", "no":
		return false
	}
	return true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeError(w http.ResponseWriter, status int, err error, kind, rid string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{
		RequestID:  rid,
		Error:      err.Error(),
		Kind:       kind,
		Overloaded: kind == "overloaded",
	})
}

// retryAfterSeconds renders an OverloadedError's suggested backoff as a
// Retry-After header value (whole seconds, minimum 1).
func retryAfterSeconds(oe *OverloadedError) string {
	secs := int(oe.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "moaserve_queries_total %d\n", m.Queries)
	fmt.Fprintf(w, "moaserve_query_errors_total %d\n", m.Errors)
	fmt.Fprintf(w, "moaserve_shed_total %d\n", m.Shed)
	fmt.Fprintf(w, "moaserve_canceled_total %d\n", m.Canceled)
	fmt.Fprintf(w, "moaserve_timeouts_total %d\n", m.Timeouts)
	fmt.Fprintf(w, "moaserve_panics_total %d\n", m.Panics)
	fmt.Fprintf(w, "moaserve_inflight %d\n", m.Inflight)
	fmt.Fprintf(w, "moaserve_plan_cache_hits_total %d\n", m.PlanHits)
	fmt.Fprintf(w, "moaserve_plan_cache_misses_total %d\n", m.PlanMisses)
	// Evictions are exposed by reason only: an unlabelled total beside the
	// labelled samples would make sum() over the family count each twice.
	fmt.Fprintf(w, "moaserve_plan_cache_evictions_total{reason=\"lru\"} %d\n", m.PlanEvictLRU)
	fmt.Fprintf(w, "moaserve_plan_cache_evictions_total{reason=\"quarantine\"} %d\n", m.PlanEvictQuarantine)
	fmt.Fprintf(w, "moaserve_plan_cache_evictions_total{reason=\"epoch\"} %d\n", m.PlanEvictEpoch)
	fmt.Fprintf(w, "moaserve_live_intermediate_bytes %d\n", m.LiveBytes)
	fmt.Fprintf(w, "moaserve_accel_builds_total %d\n", bat.AccelBuilds())
	fmt.Fprintf(w, "moaserve_ingests_total %d\n", m.Ingests)
	fmt.Fprintf(w, "moaserve_epoch_current %d\n", m.EpochCurrent)
	fmt.Fprintf(w, "moaserve_epoch_pinned %d\n", m.EpochsPinned)
	fmt.Fprintf(w, "moaserve_wal_bytes_total %d\n", m.WALBytes)
	fmt.Fprintf(w, "moaserve_wal_syncs_total %d\n", m.WALSyncs)
	fmt.Fprintf(w, "moaserve_wal_group_commits_total %d\n", m.WALGroupCommits)
	fmt.Fprintf(w, "moaserve_recoveries_total %d\n", m.Recoveries)
	fmt.Fprintf(w, "moaserve_recovery_seconds %.6f\n", m.RecoverySeconds)
	fmt.Fprintf(w, "moaserve_checkpoint_failures_total %d\n", m.CheckpointFailures)

	// Real paging (mincore/getrusage over live mmaps): what the OS actually
	// did. faults_real counts major+minor so the series moves even when the
	// page cache absorbs every fault.
	fmt.Fprintf(w, "moaserve_pager_mapped_bytes_real %d\n", m.RealMappedBytes)
	fmt.Fprintf(w, "moaserve_pager_resident_bytes_real %d\n", m.RealResidentBytes)
	fmt.Fprintf(w, "moaserve_pager_faults_real_total %d\n", m.RealMajorFaults+m.RealMinorFaults)
	fmt.Fprintf(w, "moaserve_pager_major_faults_real_total %d\n", m.RealMajorFaults)
	fmt.Fprintf(w, "moaserve_pager_minor_faults_real_total %d\n", m.RealMinorFaults)
	fmt.Fprintf(w, "moaserve_pager_residency_probed %d\n", b2i(m.RealProbed))
	fmt.Fprintf(w, "moaserve_pager_rusage_ok %d\n", b2i(m.RealRusage))
	fmt.Fprintf(w, "moaserve_accel_build_seconds_total %.9f\n",
		float64(s.accelBuildNs.Load())/1e9)

	// Latency histograms, Prometheus exposition format. The latency
	// histogram's _count equals moaserve_queries_total on a quiescent
	// service (both are bumped per successful query).
	s.histLatency.Snapshot().WriteProm(w, "moaserve_query_seconds")
	s.histSlot.Snapshot().WriteProm(w, "moaserve_slot_wait_seconds")
	s.histAdmit.Snapshot().WriteProm(w, "moaserve_admission_wait_seconds")
	s.histResult.Snapshot().WriteProm(w, "moaserve_result_seconds")
	// Write path: the ingest histogram's _count equals moaserve_ingests_total
	// at quiesce; checkpoints are the ingest tail once the apply is cheap.
	s.histIngest.Snapshot().WriteProm(w, "moaserve_ingest_seconds")
	var checkpoints obs.HistSnapshot
	if s.store != nil {
		checkpoints = s.store.CheckpointHist()
	}
	checkpoints.WriteProm(w, "moaserve_checkpoint_seconds")
	// Per checkpoint, written + linked = its manifest's part bytes.
	fmt.Fprintf(w, "moaserve_checkpoint_bytes_total{how=\"written\"} %d\n", m.CheckpointWritten)
	fmt.Fprintf(w, "moaserve_checkpoint_bytes_total{how=\"linked\"} %d\n", m.CheckpointLinked)

	// Go runtime health: scheduler and heap, the first things to look at
	// when service latency moves without a query-mix change.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "moaserve_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "moaserve_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "moaserve_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(w, "moaserve_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "moaserve_gc_pause_seconds_total %.9f\n", float64(ms.PauseTotalNs)/1e9)
}
