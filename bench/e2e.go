package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/tpcd"
)

// The end-to-end driver: it builds cmd/moaserve, starts it with the
// deployment flags only (-addr -sf -seed -data), and speaks HTTP to it. The
// only repository package it uses is internal/tpcd, for query text and for
// the object graph its answers are checked against.

const (
	ingestOrders  = 10               // orders per refresh directive, ingest.durable
	mixedOrders   = 30               // orders per refresh directive, mixed.readwrite
	mixedPeriod   = time.Second      // mixed.readwrite: one ingest is due every period
	lookupWarmOps = 50               // lookup.adhoc warm-up: ten requests per template
	opTimeout     = 30 * time.Second // a slower reply counts as failed
	snapshotEvery = 8                // moaserve's default: every eighth epoch checkpoints
)

// buildServer compiles cmd/moaserve from the checkout into the build dir.
func buildServer(root, build string) (string, error) {
	bin := filepath.Join(build, "moaserve")
	cmd := exec.Command("go", "build", "-C", root, "-o", bin, "./cmd/moaserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build moaserve: %v\n%s", err, out)
	}
	return bin, nil
}

// proc is one running moaserve process.
type proc struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{} // closed when the process has been waited for
}

// startServer launches moaserve on a free loopback port and returns once
// /healthz answers. dataDir is empty for the in-memory workloads.
func startServer(bin string, sf float64, dataDir, logPath string) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-sf", strconv.FormatFloat(sf, 'g', -1, 64), "-seed", strconv.Itoa(dbSeed)}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	s := &proc{cmd: exec.Command(bin, args...), url: "http://" + addr, log: logf, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		s.cmd.Wait() // the exit status of a killed server says nothing
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.exited:
			logf.Close()
			out, _ := os.ReadFile(logPath) // best effort: the error stands without it
			return nil, fmt.Errorf("moaserve exited during start-up:\n%s", out)
		default:
		}
		if resp, err := probe.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop(syscall.SIGKILL)
	return nil, fmt.Errorf("moaserve not healthy after 60s")
}

// stop signals the server and waits until the process has ended.
func (s *proc) stop(sig syscall.Signal) {
	s.cmd.Process.Signal(sig) // already exited: nothing to signal
	<-s.exited
	s.log.Close()
}

// client is one closed-loop session: it sends its next request only after
// the previous reply has been read to the last byte.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// post times request bytes in to response bytes out.
func (c *client) post(path, body string) (data []byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := c.http.Post(c.url+path, "text/plain", strings.NewReader(body))
	if err != nil {
		return nil, time.Since(start), err
	}
	data, err = io.ReadAll(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, lat, nil
}

// session is the state of one server lifetime of a run: what has been
// acknowledged and what has been checked. Clients share it: the verifier
// locks itself, and acked is only ever touched by the one writer.
type session struct {
	v     *verifier
	acked []directive // every acknowledged ingest, in epoch order
}

// do sends one op and checks its reply; the latency is returned even when
// the check fails.
func (s *session) do(c *client, o op) (time.Duration, error) {
	if o.ingest {
		data, lat, err := c.post("/ingest", o.body)
		if err != nil {
			return lat, fmt.Errorf("ingest: %w", err)
		}
		var reply struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			return lat, fmt.Errorf("ingest reply: %w", err)
		}
		// One writer at a time, so epochs count the acknowledged ingests.
		s.acked = append(s.acked, o.dir)
		if reply.Epoch != uint64(len(s.acked)) {
			return lat, fmt.Errorf("ingest %d published epoch %d", len(s.acked), reply.Epoch)
		}
		return lat, nil
	}
	data, lat, err := c.post("/query", o.body)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", o.class, err)
	}
	var a answer
	if err := json.Unmarshal(data, &a); err != nil {
		return lat, fmt.Errorf("%s: reply: %w", o.class, err)
	}
	return lat, s.v.check(o, a)
}

// plan is a workload instantiated for one seed.
type plan struct {
	warm    []op        // sent once, in order, after /healthz; part of setup_s
	streams []func() op // one endless op stream per closed-loop client
	// writer, when set, is the fixed-schedule ingest stream of
	// mixed.readwrite: its k-th op is due k periods into the window.
	writer func(k int) op
}

func cycle(ops []op) func() op {
	i := -1
	return func() op { i++; return ops[i%len(ops)] }
}

// makePlan generates a workload's requests from the seed.
func makePlan(w workload, gen *tpcd.DB, seed int64) (plan, error) {
	rngs := make([]*rand.Rand, w.clients+1)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i)))
	}
	switch w.name {
	case "fig9.mix":
		ops, err := fig9Ops(gen)
		if err != nil {
			return plan{}, err
		}
		p := plan{warm: ops}
		for i := 0; i < w.clients; i++ {
			p.streams = append(p.streams, cycle(shuffled(ops, rngs[i])))
		}
		return p, nil
	case "lookup.adhoc":
		base := newLookups(gen, rngs[w.clients])
		p := plan{}
		for i := 0; i < lookupWarmOps; i++ {
			p.warm = append(p.warm, base.next())
		}
		for i := 0; i < w.clients; i++ {
			l := *base
			l.rng, l.n = rngs[i], 0
			p.streams = append(p.streams, l.next)
		}
		return p, nil
	case "ingest.durable":
		k := 0
		next := func() op {
			k++
			return ingestOp(directive{Generate: ingestOrders, Seed: refreshSeed(seed, k)})
		}
		// The first ingest materializes the server's lazy generator: set-up.
		return plan{warm: []op{ingestOp(directive{Generate: ingestOrders, Seed: refreshSeed(seed, 0)})},
			streams: []func() op{next}}, nil
	case "mixed.readwrite":
		checked, err := fig9Ops(gen)
		if err != nil {
			return plan{}, err
		}
		loose := unfollowed(checked)
		warm := append([]op(nil), checked...)
		warm = append(warm, ingestOp(directive{Generate: mixedOrders, Seed: refreshSeed(seed, 0)}))
		warm = append(warm, loose...)
		return plan{warm: warm, streams: []func() op{cycle(shuffled(loose, rngs[0]))},
			writer: func(k int) op {
				return ingestOp(directive{Generate: mixedOrders, Seed: refreshSeed(seed, k)})
			}}, nil
	}
	return plan{}, fmt.Errorf("no plan for workload %q", w.name)
}

// sample is one timed operation.
type sample struct {
	lat   time.Duration
	class string
}

// tally is what one client measured.
type tally struct {
	samples   []sample
	attempted int
	failed    int
	errs      []string
}

func (t *tally) note(err error) {
	t.failed++
	if len(t.errs) < 3 {
		t.errs = append(t.errs, err.Error())
	}
}

func runEndToEnd(w workload, seed int64, seconds int, root, build string) (result, error) {
	bin, err := buildServer(root, build)
	if err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	gen := tpcd.Generate(w.sf, dbSeed)
	p, err := makePlan(w, gen, seed)
	if err != nil {
		return result{}, err
	}

	// Set-up, several times over: process start -> /healthz -> warm-up done
	// (generation, bulk load, accelerator builds, plan-cache fill and, where
	// the workload writes, the first ingest). All but the last server are
	// thrown away again.
	var (
		srv     *proc
		sess    *session
		dataDir string
		setups  []time.Duration
		checks  tally // warm-up and post-run checks: not timed, but they must pass
	)
	logPath := filepath.Join(work, "moaserve.log")
	for r := 0; r < setupRounds; r++ {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
		if w.durable {
			dataDir = filepath.Join(work, fmt.Sprintf("data-%d", r))
		}
		sess = &session{v: newVerifier()}
		start := time.Now()
		if srv, err = startServer(bin, w.sf, dataDir, logPath); err != nil {
			return result{}, err
		}
		c := newClient(srv.url)
		for _, o := range p.warm {
			checks.attempted++
			if _, err := sess.do(c, o); err != nil {
				checks.note(fmt.Errorf("warm-up: %w", err))
			}
		}
		setups = append(setups, time.Since(start))
	}
	defer func() { srv.stop(syscall.SIGTERM) }()

	// The timed window: closed loop, one goroutine per client.
	tallies := make([]tally, len(p.streams))
	var writer tally
	var late []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for i := range p.streams {
		wg.Add(1)
		go func(t *tally, next func() op) {
			defer wg.Done()
			c := newClient(srv.url)
			for time.Now().Before(deadline) {
				o := next()
				t.attempted++
				lat, err := sess.do(c, o)
				if err != nil {
					t.note(err)
					continue
				}
				class := o.class
				if o.ingest && len(sess.acked)%snapshotEvery == 0 {
					class += "+checkpoint"
				}
				t.samples = append(t.samples, sample{lat, class})
			}
		}(&tallies[i], p.streams[i])
	}
	if p.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(srv.url)
			for k := 1; ; k++ {
				due := start.Add(time.Duration(k) * mixedPeriod)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				writer.attempted++
				_, err := sess.do(c, p.writer(k))
				if err != nil {
					writer.note(err)
					continue
				}
				// Timed from when it was due: a stall delays later ingests too.
				writer.samples = append(writer.samples, sample{time.Since(due), "ingest"})
				late = append(late, sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var restart time.Duration
	if w.durable && checks.failed == 0 && writer.failed == 0 {
		if srv, restart, err = restartCheck(srv, sess, w, bin, dataDir, logPath, &checks); err != nil {
			return result{}, err
		}
	}

	// Report.
	total := tally{}
	for _, t := range append(tallies, writer, checks) {
		total.attempted += t.attempted
		total.failed += t.failed
		total.errs = append(total.errs, t.errs...)
	}
	var timed []sample
	for _, t := range tallies {
		timed = append(timed, t.samples...)
	}
	for _, e := range total.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	if len(timed) == 0 {
		return result{}, fmt.Errorf("no timed operation completed")
	}
	sort.Slice(timed, func(i, j int) bool { return timed[i].lat < timed[j].lat })
	n := len(timed)
	lats := make([]time.Duration, n)
	for i, s := range timed {
		lats[i] = s.lat
	}
	res := result{
		Correct:   total.failed == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics: map[string]metric{
			"setup_s":   {median(setups).Seconds(), "s"},
			"ops_per_s": {float64(n) / elapsed.Seconds(), "1/s"},
			"p50_ms":    {ms(quantile(lats, 0.50)), "ms"},
			"p95_ms":    {ms(quantile(lats, 0.95)), "ms"},
		},
	}
	fmt.Printf("workload %s: seed=%d sf=%g clients=%d seconds=%d closed loop, tracing off\n", w.name, seed, w.sf, w.clients, seconds)
	fmt.Printf("  setup_s      %10.4f s    median of %d set-ups %v\n", res.Metrics["setup_s"].Value, len(setups), setups)
	fmt.Printf("  ops_per_s    %10.3f 1/s  %d timed operations correct in %.3fs\n", res.Metrics["ops_per_s"].Value, n, elapsed.Seconds())
	fmt.Printf("  p50_ms       %10.4f ms   n=%d, in class %s\n", res.Metrics["p50_ms"].Value, n, timed[rank(n, 0.50)].class)
	fmt.Printf("  p95_ms       %10.4f ms   n=%d, %d beyond, in class %s\n", res.Metrics["p95_ms"].Value, n, n-1-rank(n, 0.95), timed[rank(n, 0.95)].class)
	fmt.Printf("  p99_ms       %10.4f ms   information only\n", ms(quantile(lats, 0.99)))
	fmt.Printf("  failed_share %10.6f      %d failed of %d attempted (timed operations, warm-up and end checks)\n",
		float64(total.failed)/float64(total.attempted), total.failed, total.attempted)
	if p.writer != nil {
		wl := make([]time.Duration, len(writer.samples))
		for i, s := range writer.samples {
			wl[i] = s.lat
		}
		fmt.Printf("  writer       %d ingests of %d orders, one due every %v: p50 %.1f ms from due time, started at most %.1f ms late\n",
			len(wl), mixedOrders, mixedPeriod, ms(median(wl)), ms(quantile(sortDurations(late), 1)))
	}
	if restart > 0 {
		fmt.Printf("  restart      %10.4f s    kill -9, recovery of %d acknowledged ingests, digest answers identical\n", restart.Seconds(), len(sess.acked))
	}
	return res, nil
}

// restartCheck ends a durable workload: the digest queries are checked on
// the final state against the object graph with every acknowledged batch
// applied, the server is killed without warning, restarted on the same
// directory, and must answer the digest byte for byte as before.
// It returns the server that is running afterwards.
func restartCheck(srv *proc, sess *session, w workload, bin, dataDir, logPath string, checks *tally) (*proc, time.Duration, error) {
	mirror, err := mirrorDB(w.sf, sess.acked)
	if err != nil {
		return srv, 0, fmt.Errorf("mirror: %w", err)
	}
	digest, err := digestOps(mirror)
	if err != nil {
		return srv, 0, err
	}
	sess.v.forget()
	ask := func(when string) {
		c := newClient(srv.url)
		for _, o := range digest {
			checks.attempted++
			if _, err := sess.do(c, o); err != nil {
				checks.note(fmt.Errorf("%s: %w", when, err))
			}
		}
	}
	ask("before kill")
	srv.stop(syscall.SIGKILL)
	start := time.Now()
	restarted, err := startServer(bin, w.sf, dataDir, logPath)
	if err != nil {
		return srv, 0, fmt.Errorf("restart: %w", err)
	}
	srv = restarted
	restart := time.Since(start)
	ask("after restart")
	return srv, restart, nil
}
