// Package epoch makes the serving stack writable: the base BAT environment
// becomes one link in a chain of immutable epochs, each published by an
// atomic pointer swap (copy-on-write — Monet's lineage accumulates updates
// as delta BATs and makes them visible only through a switch to a new
// immutable version). Readers pin the current epoch for the lifetime of one
// query via refcount, so an in-flight query keeps its snapshot while a new
// epoch swaps in: snapshot isolation with lock-free reads.
//
// The package has two halves. This file is the in-memory version manager
// (Epoch, Manager). wal.go, snapshot.go and store.go add durability: every
// ingest is appended to a checksummed write-ahead log and fsynced before it
// is published, snapshots checkpoint via write-temp → fsync → atomic
// rename, and Open replays the WAL onto the latest valid snapshot so a
// crash at any instant restarts into exactly the last published epoch.
package epoch

import (
	"sync/atomic"

	"repro/internal/mil"
)

// Gauge receives the memory-accounting deltas of epoch publication: a new
// epoch's owned bytes (the fresh merged columns it does not share with its
// predecessor) enter on publish and leave only when the epoch is retired
// AND its last pinned reader unpins — a live query's snapshot is live
// memory, whatever the current epoch is. *mil.MemGauge satisfies Gauge.
// An epoch's owned bytes are the byte sizes of its new columns; a
// datavector vector grown in place shares its predecessor's entries, so
// while both epochs are live that shared prefix counts in each: the gauge
// may over-report then, never under-report.
type Gauge interface {
	Add(delta int64)
}

// Epoch is one immutable published version of the database environment.
// Env must never be mutated after publication; queries resolve base BATs
// through it for their whole lifetime.
type Epoch struct {
	// ID is the epoch's position in the chain: 0 is the genesis (bulk-load)
	// epoch; every published ingest increments it by one.
	ID uint64
	// Env is the epoch's immutable base environment.
	Env mil.Env
	// Owned is the byte size of the BATs this epoch does not share with its
	// predecessor (the freshly merged columns plus their accelerators).
	Owned int64

	mgr *Manager
	// refs counts reasons the epoch must stay accounted: one for being the
	// manager's current epoch, plus one per pinned reader.
	refs atomic.Int64
	// current is true while the epoch holds the manager's publish
	// reference; cleared (before the publish reference drops) on swap-out.
	current atomic.Bool
	// freed latches the final release so the gauge is debited exactly once
	// even if a racing failed Acquire transiently resurrects the refcount.
	freed atomic.Bool
}

// Release unpins the epoch. Every successful Manager.Acquire must be paired
// with exactly one Release; the engine does this with a defer so that
// cancelled, timed-out and panicking queries unpin on every exit path.
func (e *Epoch) Release() {
	e.mgr.pins.Add(-1)
	e.unref()
}

func (e *Epoch) unref() {
	if e.refs.Add(-1) == 0 && !e.current.Load() {
		e.free()
	}
}

// free runs the epoch's end-of-life accounting exactly once: its owned
// bytes leave the gauge and it stops counting as alive.
func (e *Epoch) free() {
	if e.freed.CompareAndSwap(false, true) {
		e.mgr.alive.Add(-1)
		e.mgr.gauge().Add(-e.Owned)
	}
}

// Manager is the epoch chain's publication point. Reads (Acquire/Release)
// are lock-free and may come from any number of goroutines; Publish must be
// serialized by the caller (the Store's writer lock — there is one writer).
type Manager struct {
	cur   atomic.Pointer[Epoch]
	g     atomic.Pointer[gaugeBox] // optional; settable once before serving
	alive atomic.Int64             // epochs whose final release has not run
	pins  atomic.Int64             // outstanding reader pins (Acquire - Release)
}

type gaugeBox struct{ g Gauge }

type nilGauge struct{}

func (nilGauge) Add(int64) {}

// NewManager starts a chain at genesis (epoch id 0) over the bulk-loaded
// base env. Genesis owns no bytes relative to a predecessor: base data is
// accounted the way it always was, outside the gauge.
func NewManager(genesis mil.Env) *Manager { return NewManagerAt(0, genesis) }

// NewManagerAt starts the chain at an arbitrary epoch id — recovery uses it
// to resume exactly where the durable state ends. The recovered epoch is
// the new base: Owned stays 0 and the gauge is not charged.
func NewManagerAt(id uint64, env mil.Env) *Manager {
	m := &Manager{}
	e := &Epoch{ID: id, Env: env, mgr: m}
	e.refs.Store(1)
	e.current.Store(true)
	m.alive.Store(1)
	m.cur.Store(e)
	return m
}

// SetGauge attaches the memory gauge future publishes charge. Call once,
// before the first Publish; epochs already alive are unaffected.
func (m *Manager) SetGauge(g Gauge) {
	if g != nil {
		m.g.Store(&gaugeBox{g: g})
	}
}

func (m *Manager) gauge() Gauge {
	if b := m.g.Load(); b != nil {
		return b.g
	}
	return nilGauge{}
}

// Current peeks at the current epoch without pinning it: id and env are
// valid for inspection (metrics, the writer under its own lock) but must
// not be used for query execution — use Acquire.
func (m *Manager) Current() *Epoch { return m.cur.Load() }

// CurrentID reports the current epoch id.
func (m *Manager) CurrentID() uint64 { return m.cur.Load().ID }

// Acquire pins the current epoch and returns it. The pin keeps the epoch's
// env (and its accounting) alive against any number of concurrent swaps;
// pair with Release. Lock-free: the fast path is one atomic load, one
// increment and one confirming load.
func (m *Manager) Acquire() *Epoch {
	for {
		e := m.cur.Load()
		e.refs.Add(1)
		// Confirm e is still current: while it is, it holds its own publish
		// reference, so the increment above cannot have resurrected a dead
		// epoch. If a swap won the race, undo and retry on the new current.
		if m.cur.Load() == e {
			m.pins.Add(1)
			return e
		}
		e.unref()
	}
}

// Publish makes env the new current epoch and retires the old one. The old
// epoch's owned bytes stay on the gauge until its last pinned reader
// releases; new readers acquire the new epoch immediately (the swap is one
// atomic pointer store — readers are never blocked). Callers must serialize
// Publish invocations.
func (m *Manager) Publish(env mil.Env, owned int64) *Epoch {
	old := m.cur.Load()
	e := &Epoch{ID: old.ID + 1, Env: env, Owned: owned, mgr: m}
	e.refs.Store(1)
	e.current.Store(true)
	m.alive.Add(1)
	m.gauge().Add(owned)
	m.cur.Store(e)
	// Retire the old epoch: clear its current mark before dropping the
	// publish reference, so whichever goroutine takes refs to zero sees a
	// non-current epoch and runs the final release.
	old.current.Store(false)
	old.unref()
	return e
}

// Alive reports the number of epochs whose accounting is still live: the
// current epoch plus every retired epoch still pinned by an in-flight
// reader. 1 at quiesce.
func (m *Manager) Alive() int64 { return m.alive.Load() }

// Pins reports outstanding reader pins (Acquires minus Releases). 0 at
// quiesce; a nonzero value with no query in flight is a pin leak.
func (m *Manager) Pins() int64 { return m.pins.Load() }
