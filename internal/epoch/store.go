package epoch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
//	snapshot:before-manifest checkpoint pack durable, manifest not yet written
//	snapshot:before-rename   checkpoint temp dir written+synced, not yet live
//	snapshot:after-rename    checkpoint live, WAL not yet rotated
//
// snapshot:before-manifest fires inside SaveEnv (the caller's checkpoint
// writer, through Hooks.At); the others fire in this package.
//
// Under group commit the wal:append hooks fire in the fsync leader only —
// followers whose records a leader's sync covered never reach the syscall,
// so there is no instant at which they alone could crash mid-sync.
type Hooks struct {
	Fire func(point string)
}

// SnapshotBeforeManifest is the crash point a SaveEnv fires once its
// checkpoint's pack is durable and before its manifest is written.
const SnapshotBeforeManifest = "snapshot:before-manifest"

// At fires point; a nil Hooks or Fire does nothing.
func (h *Hooks) At(point string) {
	if h != nil && h.Fire != nil {
		h.Fire(point)
	}
}

// Options configures Open. The store is generic over the payload format:
// Validate and Apply belong to the caller (internal/tpcd supplies the
// refresh-batch codec), so this package never imports the data model.
type Options struct {
	// Dir is the durable data directory (WAL + checkpoints). Empty means
	// in-memory only: epochs and publication work, nothing survives a
	// restart.
	Dir string
	// Meta is an opaque identity blob (the tpcd store encodes scale factor and
	// generator seed). WAL segments record it and Open refuses durable state
	// whose meta differs — replaying a log against the wrong genesis would
	// silently fabricate data.
	Meta []byte
	// Genesis builds the deterministic epoch-0 environment. Open calls it
	// only when no checkpoint is loaded: an in-memory store, a fresh
	// directory, or a WAL that still reaches back to epoch 1.
	Genesis func() mil.Env
	// Validate rejects a malformed payload. It runs BEFORE the WAL append:
	// a payload that cannot apply must never become durable, or recovery
	// would deterministically re-fail on it at every restart.
	Validate func(payload []byte) error
	// Apply merges one payload into base and returns the next epoch's env
	// plus the byte size of the columns the new env does not share with
	// base. Called for live ingests and for recovery replay; it must be a
	// deterministic function of base and payload (bit-identical env).
	Apply func(base mil.Env, payload []byte) (mil.Env, int64, error)
	// SaveEnv writes env's columns into tmpDir as a checkpoint (per-part
	// CRC, the parts' pack fsynced and renamed, SnapshotBeforeManifest
	// fired through Hooks.At, manifest last); finalDir is the name
	// tmpDir is about to be renamed to, so the caller can remember where
	// borrowed (hard-linked) files will live for the next checkpoint's
	// copy-on-write pass. Required with a Dir.
	SaveEnv func(tmpDir, finalDir string, env mil.Env) error
	// LoadEnv reads a checkpoint directory back into an env, failing if any
	// part of it does not verify. Recovery loads the newest checkpoint it
	// accepts and replays the WAL past it. Required with a Dir.
	LoadEnv func(dir string) (mil.Env, error)
	// SnapshotEvery checkpoints after every N successful ingests and
	// rotates the WAL. 0 disables checkpointing (the WAL holds the full
	// history).
	SnapshotEvery int
	// Hooks optionally injects crash points; nil in production.
	Hooks *Hooks
}

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
	applied   uint64 // last record id applied and published

	wal *wal // nil when Dir == ""

	closers []io.Closer // released on Close, after the WAL

	walBytes     atomic.Int64
	recoveries   atomic.Int64
	ingests      atomic.Int64
	walSyncs     atomic.Int64
	groupCommits atomic.Int64
	failed       atomic.Bool

	checkpoints        obs.Hist // wall time of each ingest-time checkpoint
	checkpointFailures atomic.Int64
	recovery           time.Duration // wall time of Open's recovery; 0 when fresh
}

// ErrStoreFailed marks a store poisoned by a failure after a WAL write:
// the record is (or may be) durable, so recovery would re-apply it — the
// in-memory chain and the log have diverged and only a restart (which
// replays the log) reconciles them.
var ErrStoreFailed = errors.New("epoch store failed: WAL and applied state diverged, restart to recover")

// ErrRejected marks a payload that failed validation — the caller's fault,
// refused before anything became durable.
var ErrRejected = errors.New("ingest rejected")

// Open builds the epoch chain from opts. With a Dir, it recovers: load the
// newest checkpoint LoadEnv accepts, replay the WAL records past it
// (truncating a torn tail), and resume at the last published epoch.
// Without one, it starts an in-memory chain at genesis.
func Open(opts Options) (*Store, error) {
	s := &Store{opts: opts}
	s.applyCond = sync.NewCond(&s.applyMu)
	if opts.Dir == "" {
		s.mgr = NewManager(opts.Genesis())
		return s, nil
	}
	if opts.SaveEnv == nil || opts.LoadEnv == nil {
		return nil, fmt.Errorf("epoch store %s: a durable store needs SaveEnv and LoadEnv", opts.Dir)
	}
	start := time.Now()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, err
	}
	recs, err := readPrevWAL(opts.Dir, opts.Meta)
	if err != nil {
		return nil, err
	}
	var w *wal
	_, statErr := os.Stat(walPath(opts.Dir))
	hadState := statErr == nil || len(snaps) > 0 || len(recs) > 0
	if statErr == nil {
		var cur []walRecord
		w, cur, err = openWAL(opts.Dir, opts.Meta)
		recs = append(recs, cur...)
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
	s.walBytes.Store(w.size.Load())

	env, last, err := recoverEnv(opts, snaps, recs)
	if err != nil {
		w.close()
		return nil, err
	}

	s.mgr = NewManagerAt(last, env)
	s.nextID = last
	s.applied = last
	pruneSnapshots(opts.Dir)
	if hadState {
		s.recoveries.Store(1)
		s.recovery = time.Since(start)
	}
	return s, nil
}

// recoverEnv rebuilds the last published epoch from a checkpoint and the
// WAL records recs (previous segment first). snaps are the checkpoint
// epochs on disk, newest first; the newest one LoadEnv accepts is the base,
// and with none loaded genesis is the base at epoch 0. The records past the
// base must follow it without a gap and reach at least the newest
// checkpoint's epoch — every checkpoint on disk names an acknowledged
// epoch, so recovering short of one would silently drop writes.
func recoverEnv(opts Options, snaps []uint64, recs []walRecord) (env mil.Env, last uint64, err error) {
	var damaged []string
	for _, ep := range snaps {
		name := snapDirName(ep)
		e, lerr := opts.LoadEnv(filepath.Join(opts.Dir, name))
		if lerr == nil {
			env, last = e, ep
			break
		}
		damaged = append(damaged, fmt.Sprintf("%s (%v)", name, lerr))
	}
	var tail []walRecord
	gap := false
	for _, r := range recs {
		switch {
		case r.Epoch <= last: // covered by the base
		case r.Epoch == last+1:
			tail = append(tail, r)
			last = r.Epoch
		default:
			gap = true
		}
	}
	if gap || len(snaps) > 0 && last < snaps[0] {
		if len(damaged) > 0 {
			return nil, 0, fmt.Errorf("epoch store %s: recovery gap after epoch %d; checkpoints that failed to load: %s",
				opts.Dir, last, strings.Join(damaged, "; "))
		}
		return nil, 0, fmt.Errorf("epoch store %s: recovery gap after epoch %d", opts.Dir, last)
	}
	if env == nil {
		env = opts.Genesis()
	}
	for _, r := range tail {
		// Owned sizes are irrelevant here: the recovered epoch is the new
		// base, accounted like any base env (gauge untouched).
		next, _, aerr := opts.Apply(env, r.Payload)
		if aerr != nil {
			return nil, 0, fmt.Errorf("epoch store %s: replay of epoch %d failed: %w", opts.Dir, r.Epoch, aerr)
		}
		env = next
	}
	return env, last, nil
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
	s.opts.Hooks.At("publish:before-swap")
	ep := s.mgr.Publish(env, owned)
	s.opts.Hooks.At("publish:after-swap")
	s.ingests.Add(1)
	s.applied = id
	s.applyCond.Broadcast()

	// Checkpoint cadence keys off the global epoch id, not the per-process
	// ingest count, so restarts don't drift the schedule.
	if w != nil && s.opts.SnapshotEvery > 0 && ep.ID%uint64(s.opts.SnapshotEvery) == 0 {
		t0 := time.Now()
		if err := s.checkpoint(w, ep); err != nil {
			s.checkpointFailures.Add(1)
		}
		s.checkpoints.Observe(time.Since(t0))
	}
	return ep, nil
}

// checkpoint writes a checkpoint at ep and rotates the WAL. Called under
// applyMu. Best-effort: the ingest is already durable in the WAL, so a
// failed checkpoint costs replay time and WAL growth, not data — the
// caller counts it (CheckpointFailures).
func (s *Store) checkpoint(w *wal, ep *Epoch) error {
	if err := writeSnapshotDir(s.opts.Dir, ep.ID, ep.Env, s.opts.SaveEnv, s.opts.Hooks); err != nil {
		return err
	}
	// Rotate only if no record past the checkpoint exists: a pipelined
	// ingest may already have written epoch ID+1 into the segment, maybe
	// not yet synced, and the fresh segment must start exactly at ID.
	// (Records ≤ ID left unrotated are merely skipped on replay.)
	var err error
	s.appendMu.Lock()
	if s.nextID == ep.ID {
		if err = w.rotate(s.opts.Dir, s.opts.Meta); err == nil {
			s.walBytes.Store(w.size.Load())
		}
	}
	s.appendMu.Unlock()
	pruneSnapshots(s.opts.Dir)
	return err
}

// CheckpointHist reports the wall-time histogram of ingest-time
// checkpoints (snapshot write, WAL rotation and pruning), failed ones
// included.
func (s *Store) CheckpointHist() obs.HistSnapshot { return s.checkpoints.Snapshot() }

// CheckpointFailures reports ingest-time checkpoints that failed (write or
// WAL rotation) since Open. Each one leaves the WAL longer than the
// cadence intends; the ingest itself was still acknowledged.
func (s *Store) CheckpointFailures() int64 { return s.checkpointFailures.Load() }

// RecoveryTime reports the wall time Open spent recovering durable state:
// loading the checkpoint and replaying the WAL past it. 0 for a fresh
// directory or an in-memory store.
func (s *Store) RecoveryTime() time.Duration { return s.recovery }

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
