package server

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mil"
)

// Profile is the structured query-level profile: the phase breakdown of one
// request's path through the service (queueing for an execution slot,
// admission checks, plan-cache lookup, execution), the query's Fig. 9-style
// resource totals, and — when per-statement profiling ran — the full
// statement table. It is returned by QueryProfiled, rendered as JSON on
// `?profile=1`, and emitted as one JSONL record per slow query.
type Profile struct {
	RequestID string `json:"request_id,omitempty"`
	Query     string `json:"query,omitempty"`

	// Phase breakdown, nanoseconds, cut from one chain of timestamps, so
	// the six phases sum to TotalNs exactly. ExecNs is the MIL program,
	// MaterializeNs binding the structure function to its result, RenderNs
	// rendering and JSON-encoding the answer's elements (zero outside the
	// HTTP front end). TotalNs ends there: the write, and the encoding of
	// the trace and of this profile, fall outside it.
	SlotWaitNs    int64 `json:"slot_wait_ns"`
	AdmissionNs   int64 `json:"admission_ns"`
	PlanNs        int64 `json:"plan_ns"`
	ExecNs        int64 `json:"exec_ns"`
	MaterializeNs int64 `json:"materialize_ns"`
	RenderNs      int64 `json:"render_ns"`
	TotalNs       int64 `json:"total_ns"`

	PlanCacheHit bool   `json:"plan_cache_hit"`
	Epoch        uint64 `json:"epoch"`

	Faults       uint64 `json:"faults"`
	Hits         uint64 `json:"hits"`
	IntermBytes  int64  `json:"interm_bytes"`
	PeakBytes    int64  `json:"peak_bytes"`
	AccelBuilds  int    `json:"accel_builds"`
	AccelBuildNs int64  `json:"accel_build_ns"`

	Statements []StmtProfile `json:"statements,omitempty"`
}

// StmtProfile is one statement row of a query profile: the paper's Fig. 10
// columns (elapsed / faults / rows / MIL text) extended with per-statement
// resource deltas. Workers/Morsels/MaxShare are present only when a
// dispatch of the statement engaged more than one worker.
type StmtProfile struct {
	Index        int     `json:"index"`
	Text         string  `json:"text"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	Faults       uint64  `json:"faults"`
	Hits         uint64  `json:"hits"`
	Rows         int     `json:"rows"`
	Algo         string  `json:"algo"`
	OutBytes     int64   `json:"out_bytes,omitempty"`
	AccelBuilds  int     `json:"accel_builds,omitempty"`
	AccelBuildNs int64   `json:"accel_build_ns,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	Morsels      int     `json:"morsels,omitempty"`
	MaxShare     float64 `json:"max_share,omitempty"`
	Props        string  `json:"props"`
}

// stmtProfiles converts statement traces into profile rows.
func stmtProfiles(traces []mil.StmtTrace) []StmtProfile {
	out := make([]StmtProfile, len(traces))
	for i, tr := range traces {
		out[i] = StmtProfile{
			Index:        tr.Index,
			Text:         tr.Text,
			ElapsedNs:    tr.Elapsed.Nanoseconds(),
			Faults:       tr.Faults,
			Hits:         tr.Hits,
			Rows:         tr.Rows,
			Algo:         tr.Algo,
			OutBytes:     tr.OutBytes,
			AccelBuilds:  tr.AccelBuilds,
			AccelBuildNs: tr.AccelBuildNs,
			Workers:      tr.Workers,
			Morsels:      tr.Morsels,
			MaxShare:     tr.MaxShare,
			Props:        tr.Props.String(),
		}
	}
	return out
}

// phases carries the request-path phases measured for every query (the
// always-on histograms need them), each the distance between two
// consecutive timestamps of one chain; a Profile is assembled from them
// only when profiling or the slow-query log asks for one.
type phases struct {
	start, last time.Time // the chain's first and latest timestamps
	slotWait    time.Duration
	admitWait   time.Duration
	planWait    time.Duration
	execWait    time.Duration
	matWait     time.Duration
	renderWait  time.Duration
	planHit     bool
}

// mark takes the chain's next timestamp and returns the phase it ends.
func (ph *phases) mark() time.Duration {
	now := time.Now()
	d := now.Sub(ph.last)
	ph.last = now
	return d
}

// assemble builds the full Profile from the measured phases and the query's
// result.
func (ph *phases) assemble(rid, src string, res *engine.Result) *Profile {
	p := &Profile{
		RequestID:     rid,
		Query:         src,
		SlotWaitNs:    ph.slotWait.Nanoseconds(),
		AdmissionNs:   ph.admitWait.Nanoseconds(),
		PlanNs:        ph.planWait.Nanoseconds(),
		ExecNs:        ph.execWait.Nanoseconds(),
		MaterializeNs: ph.matWait.Nanoseconds(),
		RenderNs:      ph.renderWait.Nanoseconds(),
		TotalNs:       ph.last.Sub(ph.start).Nanoseconds(),
		PlanCacheHit:  ph.planHit,
	}
	if res != nil {
		p.Epoch = res.Stats.Epoch
		p.Faults = res.Stats.Faults
		p.Hits = res.Stats.Hits
		p.IntermBytes = res.Stats.IntermBytes
		p.PeakBytes = res.Stats.PeakBytes
		p.AccelBuilds = res.Stats.AccelBuilds
		p.AccelBuildNs = res.Stats.AccelBuildNs
		p.Statements = stmtProfiles(res.Traces)
	}
	return p
}

// Request-id generation: a per-process base (start time) plus a sequence,
// compact enough for log lines, unique enough to correlate a response with
// its slow-query record. Inbound X-Request-Id headers take precedence.
var (
	ridBase = time.Now().UnixNano()
	ridSeq  atomic.Int64
)

func newRequestID() string {
	return fmt.Sprintf("%x-%d", ridBase, ridSeq.Add(1))
}

// logSlowQuery emits one JSONL profile record. Marshal-then-single-Write
// (under the mutex) keeps concurrent slow queries from interleaving lines.
func (s *Service) logSlowQuery(p *Profile) {
	w := s.slowLog
	if w == nil {
		return
	}
	b, err := json.Marshal(p)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.slowMu.Lock()
	w.Write(b)
	s.slowMu.Unlock()
}
