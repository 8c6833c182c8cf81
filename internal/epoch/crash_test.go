package epoch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
	"repro/internal/storage/heapfile"
)

// Seeded crash-injection suite. Each case opens a durable store, performs a
// few ingests, then "kills the process" at one named protocol point (the
// hook panics; the test recovers and abandons the store without cleanup,
// exactly what SIGKILL leaves behind). A fresh Open must then recover to an
// env bit-identical to the pre-ingest or the post-ingest epoch — never a
// blend — and once the record is fsynced, only post-ingest is acceptable.
//
// Seeds come from CRASH_SEEDS (comma-separated int64s); the default keeps
// `go test` deterministic while CI injects fresh seeds per run.

const crashMeta = "crash-test v1"

// crashSentinel distinguishes injected kills from genuine test bugs.
type crashSentinel struct{ point string }

func crashSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CRASH_SEEDS")
	if env == "" {
		return []int64{1, 2}
	}
	var seeds []int64
	for _, s := range strings.Split(env, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("CRASH_SEEDS: bad seed %q: %v", s, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// The test codec: genesis holds one BAT "data"; each payload is a list of
// little-endian int64s appended to its tail. Deterministic, so genesis +
// replay reconstructs any epoch bit-for-bit. Checkpoints are heap-file
// directories, recovered by mapping them — the path internal/tpcd uses,
// minus the schema. Mapped test stores are never explicitly closed; views
// into them live inside abandoned envs (that is the point of a crash test)
// and the mappings are torn down with the test process.

func crashGenesis() mil.Env {
	b := bat.New("data", bat.NewVoid(0, 2), bat.NewIntCol([]int64{10, 20}), 0)
	return mil.Env{"data": b}
}

func encodeInts(vals []int64) []byte {
	out := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func crashValidate(payload []byte) error {
	if len(payload) == 0 || len(payload)%8 != 0 {
		return fmt.Errorf("payload length %d not a positive multiple of 8", len(payload))
	}
	return nil
}

func crashApply(base mil.Env, payload []byte) (mil.Env, int64, error) {
	old := base["data"]
	n := old.Len()
	merged := make([]int64, 0, n+len(payload)/8)
	for i := 0; i < n; i++ {
		merged = append(merged, old.TailValue(i).I)
	}
	for off := 0; off < len(payload); off += 8 {
		merged = append(merged, int64(binary.LittleEndian.Uint64(payload[off:])))
	}
	b := bat.New("data", bat.NewVoid(0, len(merged)), bat.NewIntCol(merged), 0)
	env := maps.Clone(base)
	env["data"] = b
	return env, b.ByteSize(), nil
}

func crashSaveEnv(tmpDir string, env mil.Env, hooks *Hooks) error {
	b := env["data"]
	vals := make([]int64, b.Len())
	for i := range vals {
		vals[i] = b.TailValue(i).I
	}
	w, err := heapfile.NewWriter(tmpDir, nil)
	if err != nil {
		return err
	}
	defer w.Abort()
	w.BeforeManifest = func() { hooks.At(SnapshotBeforeManifest) }
	if err := w.Put("data.tail", heapfile.BytesOf(vals)); err != nil {
		return err
	}
	return w.Commit()
}

func crashLoadEnv(dir string) (mil.Env, error) {
	s, err := heapfile.Open(dir)
	if err != nil {
		return nil, err
	}
	m := s.Mapping("data.tail")
	if m == nil {
		s.Close()
		return nil, os.ErrNotExist
	}
	vals := heapfile.View[int64](m)
	col := bat.NewMappedCol(vals)
	b := bat.New("data", bat.NewVoid(0, len(vals)), col, 0)
	return mil.Env{"data": b}, nil
}

func crashOptions(dir string, hooks *Hooks) Options {
	return Options{
		Dir:      dir,
		Meta:     []byte(crashMeta),
		Genesis:  crashGenesis,
		Validate: crashValidate,
		Apply:    crashApply,
		SaveEnv: func(tmpDir, _ string, env mil.Env) error {
			return crashSaveEnv(tmpDir, env, hooks)
		},
		LoadEnv:       crashLoadEnv,
		SnapshotEvery: 3,
		Hooks:         hooks,
	}
}

// fingerprint renders an env into a canonical string: every BAT, every BUN,
// in sorted name order. Two envs with equal fingerprints hold identical
// logical content — the "bit-identical" check of the recovery contract.
func fingerprint(env mil.Env) string {
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		b := env[n]
		fmt.Fprintf(&sb, "%s#%d:", n, b.Len())
		for i := 0; i < b.Len(); i++ {
			fmt.Fprintf(&sb, "[%s,%s]", b.HeadValue(i), b.TailValue(i))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// crashPoints maps each kill point to whether recovering to the pre-ingest
// epoch is acceptable. Once the WAL record's fsync returned, the ingest is
// durable by contract and only the post-ingest epoch may appear; before
// the fsync the record may or may not have reached the disk.
var crashPoints = []struct {
	point    string
	preOK    bool
	snapshot bool // fires only on a checkpoint ingest (epoch % SnapshotEvery == 0)
}{
	{"wal:append:before-sync", true, false},
	{"wal:append:after-sync", false, false},
	{"publish:before-swap", false, false},
	{"publish:after-swap", false, false},
	{SnapshotBeforeManifest, false, true},
	{"snapshot:before-rename", false, true},
	{"snapshot:after-rename", false, true},
}

// The kill matrix runs its seven protocol points under both states a store
// serves from. Recovery always loads the newest valid snap-<epoch>.d and
// replays the WAL past it; the two differ in what the crashing store's
// base env is.

// TestCrashMatrix: a fresh directory, serving genesis from memory (plus
// WAL replay) until its first SnapshotEvery ingests.
func TestCrashMatrix(t *testing.T) { runCrashMatrix(t, false) }

// TestCrashMatrixColumnar: a store restarted after a checkpoint, serving
// the mapped columns of snap-<SnapshotEvery>.d when the kill lands.
func TestCrashMatrixColumnar(t *testing.T) { runCrashMatrix(t, true) }

func runCrashMatrix(t *testing.T, restarted bool) {
	for _, seed := range crashSeeds(t) {
		for _, cp := range crashPoints {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, cp.point), func(t *testing.T) {
				runCrashCase(t, seed, cp.point, cp.preOK, cp.snapshot, restarted, crashOptions)
			})
		}
	}
}

func runCrashCase(t *testing.T, seed int64, point string, preOK, needSnapshot, restarted bool,
	mkOpts func(dir string, hooks *Hooks) Options) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	every := uint64(mkOpts(dir, nil).SnapshotEvery)
	if restarted {
		// Ingest up to the first checkpoint and close: the Open below then
		// recovers by mapping it.
		st, err := Open(mkOpts(dir, nil))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := uint64(0); i < every; i++ {
			if _, err := st.Ingest(encodeInts([]int64{rng.Int63n(1_000_000)})); err != nil {
				t.Fatalf("checkpoint ingest %d: %v", i, err)
			}
		}
		st.Close()
	}

	// Arm the kill only when the test says so: the warm-up ingests must
	// run the full protocol, including real checkpoints.
	var armed bool
	hooks := &Hooks{Fire: func(p string) {
		if armed && p == point {
			panic(crashSentinel{point: p})
		}
	}}

	st, err := Open(mkOpts(dir, hooks))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if restarted {
		if snaps, _ := listSnapshots(dir); len(snaps) != 1 || snaps[0] != every || st.Manager().CurrentID() != every {
			t.Fatalf("restarted store at epoch %d over checkpoints %v, want snap-%d.d", st.Manager().CurrentID(), snaps, every)
		}
	}
	payload := func() []byte {
		vals := make([]int64, 1+rng.Intn(4))
		for i := range vals {
			vals[i] = rng.Int63n(1_000_000)
		}
		return encodeInts(vals)
	}

	// Warm up: 1-4 clean ingests; for snapshot points, land the crashing
	// ingest exactly on a checkpoint epoch (id % SnapshotEvery == 0).
	warm := 1 + rng.Intn(4)
	if needSnapshot {
		for (st.Manager().CurrentID()+uint64(warm)+1)%every != 0 {
			warm++
		}
	}
	for i := 0; i < warm; i++ {
		if _, err := st.Ingest(payload()); err != nil {
			t.Fatalf("warm-up ingest %d: %v", i, err)
		}
	}
	pre := fingerprint(st.Manager().Current().Env)
	preID := st.Manager().CurrentID()

	// The crashing ingest: compute the post-state reference by applying the
	// same payload off to the side (Apply is deterministic and pure).
	crashPayload := payload()
	postEnv, _, err := crashApply(st.Manager().Current().Env, crashPayload)
	if err != nil {
		t.Fatalf("reference apply: %v", err)
	}
	post := fingerprint(postEnv)

	armed = true
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("ingest at %s did not crash", point)
			}
			if cs, ok := r.(crashSentinel); !ok || cs.point != point {
				panic(r) // a real bug, not our injection
			}
		}()
		st.Ingest(crashPayload)
	}()
	// Abandon st without Close — a killed process does not clean up.

	rec, err := Open(mkOpts(dir, nil))
	if err != nil {
		t.Fatalf("recovery open after crash at %s: %v", point, err)
	}
	defer rec.Close()
	got := fingerprint(rec.Manager().Current().Env)
	gotID := rec.Manager().CurrentID()
	switch {
	case got == post:
		if gotID != preID+1 {
			t.Fatalf("recovered post-ingest content but epoch id %d, want %d", gotID, preID+1)
		}
	case got == pre && preOK:
		if gotID != preID {
			t.Fatalf("recovered pre-ingest content but epoch id %d, want %d", gotID, preID)
		}
	case got == pre:
		t.Fatalf("crash at %s recovered to pre-ingest state, but the record was durable (fsync returned)", point)
	default:
		t.Fatalf("crash at %s recovered to a blend:\npre:  %q\npost: %q\ngot:  %q", point, pre, post, got)
	}
	if r := rec.Recoveries(); r != 1 {
		t.Errorf("recoveries = %d, want 1", r)
	}
	// A kill before the checkpoint rename leaves a .tmp directory (a
	// durable pack without a manifest, or more); recovery prunes it.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("crash at %s: recovery left %v", point, tmps)
	}

	// The recovered store must be fully functional: one more ingest, one
	// more reopen, still consistent.
	wantNext := gotID + 1
	if ep, err := rec.Ingest(payload()); err != nil {
		t.Fatalf("post-recovery ingest: %v", err)
	} else if ep.ID != wantNext {
		t.Fatalf("post-recovery ingest published epoch %d, want %d", ep.ID, wantNext)
	}
	want := fingerprint(rec.Manager().Current().Env)
	rec.Close()
	re, err := Open(mkOpts(dir, nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if fp := fingerprint(re.Manager().Current().Env); fp != want {
		t.Fatalf("reopen after post-recovery ingest diverged:\nwant %q\ngot  %q", want, fp)
	}
}

// TestTornTail mutilates the WAL tail directly — the on-disk image a lost
// unsynced write leaves — and verifies recovery lands on the last record
// that survived intact, with the torn suffix truncated away.
func TestTornTail(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))

			opts := crashOptions(dir, nil)
			opts.SnapshotEvery = 0 // keep every record in the segment
			st, err := Open(opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			// Track the fingerprint after every ingest; sizes[i] is the WAL
			// size with i records fully on disk.
			fps := []string{fingerprint(st.Manager().Current().Env)}
			sizes := []int64{st.WALBytes()}
			n := 3 + rng.Intn(3)
			for i := 0; i < n; i++ {
				vals := make([]int64, 1+rng.Intn(4))
				for j := range vals {
					vals[j] = rng.Int63n(1_000_000)
				}
				if _, err := st.Ingest(encodeInts(vals)); err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
				fps = append(fps, fingerprint(st.Manager().Current().Env))
				sizes = append(sizes, st.WALBytes())
			}
			st.Close()

			// Tear the tail: truncate to a random point strictly inside the
			// last record, leaving k full records.
			k := rng.Intn(n) // 0..n-1 surviving records
			cut := sizes[k] + rng.Int63n(sizes[k+1]-sizes[k]-1) + 1
			if err := os.Truncate(walPath(dir), cut); err != nil {
				t.Fatalf("truncate: %v", err)
			}

			rec, err := Open(opts)
			if err != nil {
				t.Fatalf("open after tear: %v", err)
			}
			defer rec.Close()
			if id := rec.Manager().CurrentID(); id != uint64(k) {
				t.Fatalf("recovered epoch %d, want %d (records surviving the tear)", id, k)
			}
			if fp := fingerprint(rec.Manager().Current().Env); fp != fps[k] {
				t.Fatalf("recovered env does not match epoch %d reference", k)
			}
			// The torn suffix must be gone from the segment, not just ignored.
			if got := rec.WALBytes(); got != sizes[k] {
				t.Fatalf("wal size after recovery = %d, want %d (torn tail truncated)", got, sizes[k])
			}
		})
	}
}

// TestMetaMismatchRefused: a data directory must not replay against a
// different genesis (wrong scale factor or seed would fabricate data).
func TestMetaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(crashOptions(dir, nil))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Ingest(encodeInts([]int64{1})); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	st.Close()
	opts := crashOptions(dir, nil)
	opts.Meta = []byte("different genesis")
	if _, err := Open(opts); err == nil {
		t.Fatal("open with mismatched meta succeeded, want refusal")
	}
}

// TestValidationRejectedBeforeDurable: a payload that fails validation must
// leave no trace — same WAL size, same epoch, and the store still accepts
// good payloads.
func TestValidationRejectedBeforeDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(crashOptions(dir, nil))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	size0 := st.WALBytes()
	if _, err := st.Ingest([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad payload accepted")
	} else if !errors.Is(err, ErrRejected) {
		t.Fatalf("unexpected rejection error: %v", err)
	}
	if st.WALBytes() != size0 {
		t.Fatalf("rejected payload grew the WAL: %d -> %d", size0, st.WALBytes())
	}
	if st.Manager().CurrentID() != 0 {
		t.Fatalf("rejected payload advanced the epoch to %d", st.Manager().CurrentID())
	}
	if _, err := st.Ingest(encodeInts([]int64{7})); err != nil {
		t.Fatalf("good ingest after rejection: %v", err)
	}
}

// TestConcurrentReadersAcrossCrash drives 8 readers that continuously pin,
// fingerprint, and unpin while the writer publishes epochs and then crashes
// mid-protocol. Every pinned snapshot must match the sequential reference
// for its epoch id — never a blend of two epochs — and at quiesce the pin
// count and gauge reconcile to exactly the current epoch.
func TestConcurrentReadersAcrossCrash(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))

			var armed bool
			const killPoint = "publish:after-swap"
			hooks := &Hooks{Fire: func(p string) {
				if armed && p == killPoint {
					panic(crashSentinel{point: p})
				}
			}}
			st, err := Open(crashOptions(dir, hooks))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			var g mil.MemGauge
			st.Manager().SetGauge(&g)

			// Sequential reference chain, computed up front.
			const ingests = 8
			payloads := make([][]byte, ingests)
			refs := make(map[uint64]string, ingests+1)
			env := crashGenesis()
			refs[0] = fingerprint(env)
			for i := range payloads {
				vals := make([]int64, 1+rng.Intn(4))
				for j := range vals {
					vals[j] = rng.Int63n(1_000_000)
				}
				payloads[i] = encodeInts(vals)
				env, _, err = crashApply(env, payloads[i])
				if err != nil {
					t.Fatalf("reference apply %d: %v", i, err)
				}
				refs[uint64(i+1)] = fingerprint(env)
			}

			stop := make(chan struct{})
			errs := make(chan error, 8)
			var wg sync.WaitGroup
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						ep := st.Manager().Acquire()
						want, ok := refs[ep.ID]
						if !ok {
							ep.Release()
							select {
							case errs <- fmt.Errorf("pinned unknown epoch %d", ep.ID):
							default:
							}
							return
						}
						if got := fingerprint(ep.Env); got != want {
							ep.Release()
							select {
							case errs <- fmt.Errorf("epoch %d snapshot is a blend", ep.ID):
							default:
							}
							return
						}
						ep.Release()
					}
				}()
			}

			for i, p := range payloads {
				if i == len(payloads)-1 {
					armed = true // kill during the last publish, mid-swap
					func() {
						defer func() {
							if r := recover(); r == nil {
								t.Errorf("final ingest did not crash")
							}
						}()
						st.Ingest(p)
					}()
					break
				}
				if _, err := st.Ingest(p); err != nil {
					t.Fatalf("ingest %d: %v", i, err)
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Quiesce: no leaked pins, one live epoch, gauge holds exactly
			// the current epoch's owned bytes.
			if p := st.Manager().Pins(); p != 0 {
				t.Errorf("pins at quiesce = %d, want 0", p)
			}
			if a := st.Manager().Alive(); a != 1 {
				t.Errorf("alive at quiesce = %d, want 1", a)
			}
			if g.Live() != st.Manager().Current().Owned {
				t.Errorf("gauge = %d, want current epoch's owned %d", g.Live(), st.Manager().Current().Owned)
			}

			// The crash hit publish:after-swap, so the record was durable:
			// recovery must land on the final epoch.
			rec, err := Open(crashOptions(dir, nil))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer rec.Close()
			if id := rec.Manager().CurrentID(); id != ingests {
				t.Fatalf("recovered epoch %d, want %d", id, ingests)
			}
			if fp := fingerprint(rec.Manager().Current().Env); fp != refs[ingests] {
				t.Fatalf("recovered env does not match the sequential reference")
			}
		})
	}
}
