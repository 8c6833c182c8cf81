package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The closed-loop load generator: each client is a session issuing its next
// query only after the previous one returned — the standard model for
// measuring a service's sustainable QPS (offered load adapts to service
// rate, so the system is never driven into an unbounded queue). Overload
// refusals retry the same query with jittered exponential backoff, honoring
// the server's Retry-After suggestion when it is longer — exactly the
// client behavior the admission controller's 503 contract asks for (and the
// jitter prevents the shed cohort from re-arriving in lockstep). Timeouts
// and cancellations are clean lifecycle outcomes, counted apart from hard
// errors.

// LoadConfig tunes one load-generation run.
type LoadConfig struct {
	// Clients is the number of closed-loop sessions (concurrent streams).
	Clients int
	// Duration bounds the run (wall clock).
	Duration time.Duration
	// Queries is the mix; client i starts at offset i and round-robins.
	Queries []string
	// ShedBackoff is the base pause after an overload refusal (default
	// 2ms); consecutive refusals of the same query double it.
	ShedBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 250ms). A server
	// Retry-After longer than the cap is honored anyway — the server knows
	// something the client doesn't.
	MaxBackoff time.Duration
	// Seed seeds the per-client backoff jitter; 0 picks a fixed default so
	// unseeded runs are reproducible.
	Seed int64
	// WriteMix is the fraction of operations issued as ingests instead of
	// queries (0 = pure reads). Requires Ingest; each client draws per
	// operation from its seeded rng, so the mix is reproducible.
	WriteMix float64
	// Ingest issues one ingest and reports the epoch it published. Overload
	// refusals get the same jittered backoff-and-retry treatment as
	// queries.
	Ingest func() (uint64, error)
}

// LoadReport summarizes a load-generation run.
type LoadReport struct {
	Clients   int
	Elapsed   time.Duration
	Queries   int64  // completed successfully
	Errors    int64  // hard failures
	Shed      int64  // overload refusals
	Retries   int64  // re-issues after a refusal (== shed unless the run ended first)
	Timeouts  int64  // queries stopped by deadline expiry
	Canceled  int64  // queries stopped by cancellation
	Ingests   int64  // ingests published (each one is an epoch swap)
	LastEpoch uint64 // highest epoch id observed across all clients
	QPS       float64
	// Read-latency distribution (ingests excluded), merged over all clients
	// from the same log₂ histogram code the server exposes on /metrics. The
	// percentiles are octave upper bounds (at most 2× the sample value);
	// Mean is exact.
	Hist          obs.HistSnapshot
	Mean          time.Duration
	P50, P95, P99 time.Duration
}

func (r *LoadReport) String() string {
	s := fmt.Sprintf("clients=%d elapsed=%v queries=%d errors=%d shed=%d retries=%d timeouts=%d canceled=%d qps=%.1f mean=%v p50=%v p95=%v p99=%v",
		r.Clients, r.Elapsed.Round(time.Millisecond), r.Queries, r.Errors, r.Shed,
		r.Retries, r.Timeouts, r.Canceled,
		r.QPS, r.Mean.Round(time.Microsecond),
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	if r.Ingests > 0 {
		s += fmt.Sprintf(" ingests=%d epoch=%d", r.Ingests, r.LastEpoch)
	}
	return s
}

// RunLoad drives the closed loop against do — any query executor: the
// in-process Service.Query, or an HTTP doer from HTTPQueryFunc. It returns
// when Duration has elapsed and every client's in-flight query finished.
func RunLoad(cfg LoadConfig, do func(src string) error) *LoadReport {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.ShedBackoff <= 0 {
		cfg.ShedBackoff = 2 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Queries) == 0 {
		return &LoadReport{Clients: cfg.Clients}
	}

	type clientStats struct {
		hist               obs.Hist
		queries            int64
		errors, shed       int64
		retries            int64
		timeouts, canceled int64
		ingests            int64
		lastEpoch          uint64
	}
	stats := make([]clientStats, cfg.Clients)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
		run:
			for i := c; time.Now().Before(deadline); i++ {
				src := cfg.Queries[i%len(cfg.Queries)]
				// Mixed read/write mode: a WriteMix draw turns this
				// iteration into an ingest. The retry/backoff contract is
				// identical — an overloaded server sheds writes too.
				write := cfg.Ingest != nil && cfg.WriteMix > 0 && rng.Float64() < cfg.WriteMix
				backoff := cfg.ShedBackoff
			attempt:
				for {
					t0 := time.Now()
					var err error
					var epochID uint64
					if write {
						epochID, err = cfg.Ingest()
					} else {
						err = do(src)
					}
					switch {
					case err == nil && write:
						st.ingests++
						if epochID > st.lastEpoch {
							st.lastEpoch = epochID
						}
					case err == nil:
						st.hist.Observe(time.Since(t0))
						st.queries++
					case IsOverloaded(err):
						st.shed++
						wait := backoff
						var oe *OverloadedError
						if errors.As(err, &oe) && oe.RetryAfter > wait {
							wait = oe.RetryAfter
						}
						// Jitter in [0.5, 1.5) of the nominal wait.
						wait = time.Duration(float64(wait) * (0.5 + rng.Float64()))
						if backoff *= 2; backoff > cfg.MaxBackoff {
							backoff = cfg.MaxBackoff
						}
						// If the backoff cannot complete before the run ends,
						// stop issuing entirely — skipping the wait and firing
						// the next query would turn the run's closing moments
						// into an un-backed-off hot spin against a server that
						// just asked for breathing room.
						if !time.Now().Add(wait).Before(deadline) {
							break run
						}
						time.Sleep(wait)
						st.retries++
						continue attempt // same query, not the next one
					case errors.Is(err, context.DeadlineExceeded):
						st.timeouts++
					case errors.Is(err, context.Canceled):
						st.canceled++
					default:
						st.errors++
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{Clients: cfg.Clients, Elapsed: elapsed}
	// Merge the per-client histograms into one run-wide distribution — the
	// same bucketing the server exposes on /metrics, so client-side and
	// server-side percentiles are directly comparable (both are octave
	// upper bounds).
	var all obs.HistSnapshot
	for i := range stats {
		rep.Queries += stats[i].queries
		rep.Errors += stats[i].errors
		rep.Shed += stats[i].shed
		rep.Retries += stats[i].retries
		rep.Timeouts += stats[i].timeouts
		rep.Canceled += stats[i].canceled
		rep.Ingests += stats[i].ingests
		if stats[i].lastEpoch > rep.LastEpoch {
			rep.LastEpoch = stats[i].lastEpoch
		}
		all.Merge(stats[i].hist.Snapshot())
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Queries) / elapsed.Seconds()
	}
	rep.Hist = all
	rep.Mean = all.Mean()
	rep.P50 = all.Quantile(0.50)
	rep.P95 = all.Quantile(0.95)
	rep.P99 = all.Quantile(0.99)
	return rep
}

// HTTPIngestFunc returns an ingest executor that POSTs body() to a running
// moaserve instance's /ingest endpoint — the load generator's remote write
// mode. body is called per ingest so each one can carry a distinct batch
// (e.g. a fresh generator seed); the returned epoch id comes from the
// server's response.
func HTTPIngestFunc(baseURL string, client *http.Client, body func() []byte) func() (uint64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimRight(baseURL, "/") + "/ingest"
	return func() (uint64, error) {
		resp, err := client.Post(url, "application/json", strings.NewReader(string(body())))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("ingest failed: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		var ir IngestResponse
		if err := json.Unmarshal(raw, &ir); err != nil {
			return 0, fmt.Errorf("ingest response: %w", err)
		}
		return ir.Epoch, nil
	}
}

// HTTPQueryFunc returns a query executor that POSTs MOA source to a running
// moaserve instance's /query endpoint — the load generator's remote mode.
// Status codes map back onto the typed lifecycle outcomes the in-process
// path produces: 503 → OverloadedError (with the server's Retry-After),
// 504 → context.DeadlineExceeded, 499 → context.Canceled, so closed-loop
// clients behave identically in both modes.
func HTTPQueryFunc(baseURL string, client *http.Client) func(src string) error {
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimRight(baseURL, "/") + "/query?noresult=1"
	return func(src string) error {
		resp, err := client.Post(url, "text/plain", strings.NewReader(src))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusServiceUnavailable:
			oe := &OverloadedError{}
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				oe.RetryAfter = time.Duration(secs) * time.Second
			}
			return oe
		case http.StatusGatewayTimeout:
			return fmt.Errorf("query timed out: %s: %w", strings.TrimSpace(string(body)), context.DeadlineExceeded)
		case statusClientClosedRequest:
			return fmt.Errorf("query canceled: %s: %w", strings.TrimSpace(string(body)), context.Canceled)
		default:
			return fmt.Errorf("query failed: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
	}
}
