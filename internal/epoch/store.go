package epoch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mil"
	"repro/internal/obs"
)

// Hooks is the crash-injection surface: Fire is called at named points in
// the durability protocol and may panic to simulate a process kill at that
// exact instant. Production passes nil. The points, in protocol order:
//
//	wal:append:before-sync   record written, not yet durable
//	wal:append:after-sync    record durable, epoch not yet applied
//	publish:before-swap      env built, old epoch still current
//	publish:after-swap       new epoch visible to readers
//	snapshot:before-rename   snapshot temp written+synced, not yet live
//	snapshot:after-rename    snapshot live, WAL not yet rotated
//
// Under group commit the wal:append hooks fire in the fsync leader only —
// followers whose records a leader's sync covered never reach the syscall,
// so there is no instant at which they alone could crash mid-sync.
type Hooks struct {
	Fire func(point string)
}

func (h *Hooks) at(point string) {
	if h != nil && h.Fire != nil {
		h.Fire(point)
	}
}

// Options configures Open. The store is generic over the payload format:
// Validate and Apply belong to the caller (internal/tpcd supplies the
// refresh-batch codec), so this package never imports the data model.
type Options struct {
	// Dir is the durable data directory (WAL + snapshots). Empty means
	// in-memory only: epochs and publication work, nothing survives a
	// restart.
	Dir string
	// Meta is an opaque identity blob (the tpcd store encodes scale factor
	// and generator seed). WAL and snapshot files record it and Open
	// refuses durable state whose meta differs — replaying a log against
	// the wrong genesis would silently fabricate data.
	Meta []byte
	// Genesis is the deterministic epoch-0 environment. Recovery rebuilds
	// every later epoch by replaying ingest payloads on top of it.
	Genesis mil.Env
	// LazyGenesis supplies the genesis env on demand. When a columnar
	// checkpoint maps cleanly (LoadEnv below), genesis is never needed and
	// the expensive build — for tpcd, materializing every base column — is
	// skipped entirely; that is the out-of-core restart path. Ignored when
	// Genesis is non-nil.
	LazyGenesis func() mil.Env
	// Validate rejects a malformed payload. It runs BEFORE the WAL append:
	// a payload that cannot apply must never become durable, or recovery
	// would deterministically re-fail on it at every restart.
	Validate func(payload []byte) error
	// Apply merges one payload into base and returns the next epoch's env
	// plus the byte size of the columns the new env does not share with
	// base. Called for live ingests and for recovery replay; it must be
	// deterministic (same base + payload → bit-identical env).
	Apply func(base mil.Env, payload []byte) (mil.Env, int64, error)
	// SaveEnv, together with LoadEnv, switches checkpoints from replayable
	// batch logs to columnar heap-file directories (snap-<epoch>.d).
	// SaveEnv writes env's columns into tmpDir with the heap-store
	// discipline (per-file CRC, temp+rename per column, manifest last);
	// finalDir is the name tmpDir is about to be renamed to, so the caller
	// can remember where borrowed (hard-linked) files will live for the
	// next checkpoint's copy-on-write pass.
	SaveEnv func(tmpDir, finalDir string, env mil.Env) error
	// LoadEnv maps a checkpoint directory back into an env. Recovery
	// prefers it over replay; on error it falls back to genesis-plus-replay
	// (the batch history is carried inside the directory), so a damaged
	// heap file degrades, never fails.
	LoadEnv func(dir string) (mil.Env, error)
	// ReplayObjects reapplies one payload's side effects to the caller's
	// writer-side objects WITHOUT rebuilding the env. Recovery calls it for
	// batches a mapped checkpoint already covers: the env came from disk,
	// but the caller's mutable state (for tpcd, the generator's row slices)
	// must still advance to match. Unlike LoadEnv, a failure here is fatal
	// — a partial object replay cannot be rolled back.
	ReplayObjects func(payload []byte) error
	// SnapshotEvery checkpoints after every N successful ingests and
	// rotates the WAL. 0 disables checkpointing (the WAL holds the full
	// history).
	SnapshotEvery int
	// Hooks optionally injects crash points; nil in production.
	Hooks *Hooks
}

func (o *Options) columnar() bool { return o.SaveEnv != nil && o.LoadEnv != nil }

// Store is the durable front of an epoch chain. Ingest runs validate →
// WAL write → group-commit fsync → apply → publish, so an epoch becomes
// visible to readers only after the record that recreates it is on disk.
// Readers never take writer locks — they pin epochs via Manager.
//
// Concurrency: ingests are pipelined, not serialized. appendMu orders
// record ids and WAL writes; the fsync is shared (wal.syncTo — concurrent
// ingests racing one disk flush coalesce into a single fsync, the classic
// group commit); applyMu + applied re-impose epoch order on the
// apply/publish stage. Lock hierarchy: applyMu → appendMu → wal.syncMu.
type Store struct {
	mgr  *Manager
	opts Options

	appendMu sync.Mutex // orders id assignment + WAL writes
	nextID   uint64     // last record id assigned (written, maybe not yet applied)

	applyMu   sync.Mutex // orders apply/publish/checkpoint
	applyCond *sync.Cond
	applied   uint64      // last record id applied and published
	history   []walRecord // durable stores: every applied payload since genesis, in order

	wal *wal // nil when Dir == ""

	closers []io.Closer // released on Close, after the WAL

	walBytes     atomic.Int64
	recoveries   atomic.Int64
	ingests      atomic.Int64
	walSyncs     atomic.Int64
	groupCommits atomic.Int64
	failed       atomic.Bool

	checkpoints obs.Hist // wall time of each ingest-time checkpoint
}

// ErrStoreFailed marks a store poisoned by a failure after a WAL write:
// the record is (or may be) durable, so recovery would re-apply it — the
// in-memory chain and the log have diverged and only a restart (which
// replays the log) reconciles them.
var ErrStoreFailed = errors.New("epoch store failed: WAL and applied state diverged, restart to recover")

// ErrRejected marks a payload that failed validation — the caller's fault,
// refused before anything became durable.
var ErrRejected = errors.New("ingest rejected")

// Open builds the epoch chain from opts. With a Dir, it recovers: find the
// newest valid snapshot, map it (columnar stores) or replay its batches,
// apply the WAL tail (truncating torn records), and resume at the last
// published epoch. Without one, it starts an in-memory chain at genesis.
func Open(opts Options) (*Store, error) {
	s := &Store{opts: opts}
	s.applyCond = sync.NewCond(&s.applyMu)
	genesis := func() mil.Env {
		if opts.Genesis == nil && opts.LazyGenesis != nil {
			return opts.LazyGenesis()
		}
		return opts.Genesis
	}
	if opts.Dir == "" {
		s.mgr = NewManager(genesis())
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	snap, err := latestSnapshot(opts.Dir, opts.Meta)
	if err != nil {
		return nil, err
	}
	var (
		w    *wal
		recs []walRecord
	)
	_, statErr := os.Stat(walPath(opts.Dir))
	hadState := statErr == nil || snap != nil
	if statErr == nil {
		w, recs, err = openWAL(opts.Dir, opts.Meta)
	} else if errors.Is(statErr, os.ErrNotExist) {
		w, err = createWAL(opts.Dir, opts.Meta)
	} else {
		err = statErr
	}
	if err != nil {
		return nil, err
	}
	w.hooks = opts.Hooks
	s.wal = w
	s.walBytes.Store(w.size)

	// Assemble the batch history: snapshot batches, then WAL records past
	// the snapshot epoch. Records the snapshot already covers (a crash
	// between checkpoint and rotation leaves them behind) are skipped.
	var last uint64
	if snap != nil {
		s.history = snap.Batches
		last = snap.Epoch
	}
	for _, r := range recs {
		if r.Epoch <= last {
			continue
		}
		if r.Epoch != last+1 {
			w.close()
			return nil, fmt.Errorf("epoch store %s: recovery gap — have epoch %d, next record is %d",
				opts.Dir, last, r.Epoch)
		}
		s.history = append(s.history, r)
		last = r.Epoch
	}

	// Build the recovered env. A columnar checkpoint is MAPPED, not
	// replayed: LoadEnv wires the heap files straight into served columns
	// and the checkpointed batches only replay their object-side effects.
	// Any LoadEnv failure falls back to genesis-plus-full-replay — the
	// batch history reconstructs the same env bit-identically, just slower
	// and in anonymous memory.
	var env mil.Env
	mapped := false
	if snap != nil && snap.Dir != "" && opts.LoadEnv != nil {
		if e, lerr := opts.LoadEnv(snap.Dir); lerr == nil {
			env, mapped = e, true
		}
	}
	if mapped {
		for _, r := range s.history {
			if r.Epoch <= snap.Epoch {
				if opts.ReplayObjects != nil {
					if err := opts.ReplayObjects(r.Payload); err != nil {
						w.close()
						return nil, fmt.Errorf("epoch store %s: object replay of epoch %d failed: %w",
							opts.Dir, r.Epoch, err)
					}
				}
				continue
			}
			next, _, aerr := opts.Apply(env, r.Payload)
			if aerr != nil {
				w.close()
				return nil, fmt.Errorf("epoch store %s: replay of epoch %d failed: %w", opts.Dir, r.Epoch, aerr)
			}
			env = next
		}
	} else {
		// Owned sizes are irrelevant here: the recovered epoch is the new
		// base, accounted like any base env (gauge untouched).
		env = genesis()
		for _, r := range s.history {
			next, _, aerr := opts.Apply(env, r.Payload)
			if aerr != nil {
				w.close()
				return nil, fmt.Errorf("epoch store %s: replay of epoch %d failed: %w", opts.Dir, r.Epoch, aerr)
			}
			env = next
		}
	}

	// Columnar bootstrap: a store configured for heap files but recovered
	// without mapping one (first open, or an upgrade from batch-log
	// snapshots) checkpoints NOW and maps the result back, so the served
	// base columns are file-backed from the first query — not only after
	// SnapshotEvery ingests. Crash hooks stay silent here: this is not one
	// of the six protocol points, and arming a hook for ingest-time
	// checkpoints must not detonate during Open.
	if !mapped && opts.columnar() {
		if err := writeSnapshotDir(opts.Dir, opts.Meta, last, s.history, env, opts.SaveEnv, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("epoch store %s: columnar bootstrap checkpoint: %w", opts.Dir, err)
		}
		e, lerr := opts.LoadEnv(filepath.Join(opts.Dir, snapDirName(last)))
		if lerr != nil {
			w.close()
			return nil, fmt.Errorf("epoch store %s: columnar bootstrap map-back: %w", opts.Dir, lerr)
		}
		env = e
		snap = &snapshot{Epoch: last}
	}

	s.mgr = NewManagerAt(last, env)
	s.nextID = last
	s.applied = last
	if hadState {
		s.recoveries.Store(1)
	}
	// Prune up to the snapshot actually recovered from (or just written) —
	// NOT up to the replayed epoch: the WAL only holds records past that
	// snapshot, so deleting it would leave the directory unable to bridge
	// genesis to the WAL's first record on the next open.
	var snapEpoch uint64
	if snap != nil {
		snapEpoch = snap.Epoch
	}
	pruneSnapshots(opts.Dir, snapEpoch)
	return s, nil
}

// Manager exposes the epoch chain for readers (pinning) and metrics.
func (s *Store) Manager() *Manager { return s.mgr }

// AddCloser registers a resource to release when the store closes, after
// the WAL. The tpcd heap store parks its file mappings here: they must
// outlive every epoch that serves views over them, and the store's own
// lifetime is the only correct bound.
func (s *Store) AddCloser(c io.Closer) {
	s.applyMu.Lock()
	s.closers = append(s.closers, c)
	s.applyMu.Unlock()
}

// poison marks the store failed and wakes every ingest waiting its turn in
// the apply stage so they can bail with ErrStoreFailed.
func (s *Store) poison() {
	s.failed.Store(true)
	s.applyMu.Lock()
	s.applyCond.Broadcast()
	s.applyMu.Unlock()
}

// Ingest applies one payload as the next epoch. The protocol order is the
// durability contract: validate (reject before anything is durable), WAL
// write + fsync (the epoch is now recoverable), apply (build the new env
// off to the side), publish (one atomic swap — the only instant readers
// notice), checkpoint if due.
//
// Concurrent ingests pipeline: ids and WAL writes are ordered by appendMu,
// the fsync group-commits (N racing ingests, one flush), and applies are
// re-sequenced by record id so epochs publish in WAL order. Each call
// still blocks until ITS record is durable and ITS epoch published, so the
// caller-visible contract is unchanged from the serial protocol.
func (s *Store) Ingest(payload []byte) (*Epoch, error) {
	if s.failed.Load() {
		return nil, ErrStoreFailed
	}
	if s.opts.Validate != nil {
		if err := s.opts.Validate(payload); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRejected, err)
		}
	}

	s.appendMu.Lock()
	if s.failed.Load() {
		s.appendMu.Unlock()
		return nil, ErrStoreFailed
	}
	w := s.wal
	id := s.nextID + 1
	var end int64
	if w != nil {
		var err error
		end, err = w.write(id, payload)
		if err != nil {
			// Bytes may be partially in the file; the next writer would
			// land mid-record. The torn-tail truncation fixes it on
			// restart, nothing fixes it live.
			s.appendMu.Unlock()
			s.poison()
			return nil, fmt.Errorf("wal write: %w (%w)", err, ErrStoreFailed)
		}
		s.walBytes.Store(end)
	}
	s.nextID = id
	s.appendMu.Unlock()

	if w != nil {
		led, err := w.syncTo(end)
		if err != nil {
			s.poison()
			return nil, fmt.Errorf("wal sync: %w (%w)", err, ErrStoreFailed)
		}
		if led {
			s.walSyncs.Add(1)
		} else {
			s.groupCommits.Add(1)
		}
	}

	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	for s.applied != id-1 {
		if s.failed.Load() {
			return nil, ErrStoreFailed
		}
		s.applyCond.Wait()
	}
	if s.failed.Load() {
		return nil, ErrStoreFailed
	}

	env, owned, err := s.opts.Apply(s.mgr.Current().Env, payload)
	if err != nil {
		if w != nil {
			// The record is durable but was never applied; the log now says
			// more than memory does. Poison the store — restart recovery
			// replays the record (Apply is deterministic, so this path means
			// a non-deterministic failure such as OOM, not bad data).
			s.failed.Store(true)
			s.applyCond.Broadcast()
			return nil, fmt.Errorf("apply after WAL write: %w (%w)", err, ErrStoreFailed)
		}
		// In-memory store: skip the id so successors can proceed. Epoch ids
		// simply don't advance for a failed apply.
		s.applied = id
		s.applyCond.Broadcast()
		return nil, fmt.Errorf("apply: %w", err)
	}
	s.opts.Hooks.at("publish:before-swap")
	ep := s.mgr.Publish(env, owned)
	s.opts.Hooks.at("publish:after-swap")
	if w != nil {
		// Only checkpoints read the history, and only a durable store
		// checkpoints: an in-memory one would hold every payload forever.
		s.history = append(s.history, walRecord{Epoch: id, Payload: append([]byte(nil), payload...)})
	}
	s.ingests.Add(1)
	s.applied = id
	s.applyCond.Broadcast()

	// Checkpoint cadence keys off the global epoch id, not the per-process
	// ingest count, so restarts don't drift the schedule.
	if w != nil && s.opts.SnapshotEvery > 0 && ep.ID%uint64(s.opts.SnapshotEvery) == 0 {
		t0 := time.Now()
		s.checkpoint(w, ep)
		s.checkpoints.Observe(time.Since(t0))
	}
	return ep, nil
}

// checkpoint writes a snapshot at ep and rotates the WAL. Called under
// applyMu. Best-effort: the ingest is already durable in the WAL, so a
// failed snapshot costs replay time, not data.
func (s *Store) checkpoint(w *wal, ep *Epoch) {
	var err error
	if s.opts.columnar() {
		err = writeSnapshotDir(s.opts.Dir, s.opts.Meta, ep.ID, s.history, ep.Env, s.opts.SaveEnv, s.opts.Hooks)
	} else {
		err = writeSnapshot(s.opts.Dir, s.opts.Meta, ep.ID, s.history, s.opts.Hooks)
	}
	if err != nil {
		return
	}
	// Rotate only if no record past the checkpoint exists: a pipelined
	// ingest may already have written epoch ID+1 into the segment, and
	// rotation would destroy the only durable copy. (Records ≤ ID left
	// unrotated are merely skipped on replay — harmless.)
	s.appendMu.Lock()
	if s.nextID == ep.ID {
		if err := w.rotate(s.opts.Dir, s.opts.Meta); err == nil {
			s.walBytes.Store(w.size)
		}
	}
	s.appendMu.Unlock()
	pruneSnapshots(s.opts.Dir, ep.ID)
}

// CheckpointHist reports the wall-time histogram of ingest-time
// checkpoints (snapshot write, WAL rotation and pruning), failed ones
// included.
func (s *Store) CheckpointHist() obs.HistSnapshot { return s.checkpoints.Snapshot() }

// WALBytes reports total bytes in the current WAL segment (header
// included); rotation resets it.
func (s *Store) WALBytes() int64 { return s.walBytes.Load() }

// Recoveries reports whether this Open recovered from existing durable
// state (1) or initialized fresh (0).
func (s *Store) Recoveries() int64 { return s.recoveries.Load() }

// Ingests reports successful ingests since Open.
func (s *Store) Ingests() int64 { return s.ingests.Load() }

// WALSyncs reports fsyncs issued by group-commit leaders since Open.
func (s *Store) WALSyncs() int64 { return s.walSyncs.Load() }

// WALGroupCommits reports ingests whose durability rode another ingest's
// fsync — commits coalesced by the group. WALSyncs+WALGroupCommits equals
// the number of durable ingest attempts; the gap between that sum and 2×
// is the batching win.
func (s *Store) WALGroupCommits() int64 { return s.groupCommits.Load() }

// Close releases the WAL file handle and every registered closer.
// Outstanding epochs and pins are unaffected — Close is about file
// descriptors, not the chain — but the store refuses ingests afterwards.
func (s *Store) Close() error {
	s.poison() // wake queued ingests; the store is done accepting work
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	var err error
	if s.wal != nil {
		err = s.wal.close()
		s.wal = nil
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		if cerr := s.closers[i].Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.closers = nil
	return err
}
