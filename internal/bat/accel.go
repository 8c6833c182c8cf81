package bat

import (
	"sync"
	"sync/atomic"
	"time"
)

// Concurrent sessions share one set of base BATs, and Monet-style dynamic
// optimization builds accelerators lazily at run time — so accelerator
// publication is the one place the otherwise-immutable kernel mutates shared
// state. accelSlot makes that mutation safe: readers see the accelerator
// through one atomic pointer load (no lock on the probe fast path), and
// construction is singleflight — concurrent probes that need the same
// missing index coalesce onto one (sequential) build instead of racing or
// duplicating the work. Distinct slots
// build independently; only callers of the *same* missing accelerator wait.
type accelSlot struct {
	mu  sync.Mutex
	idx atomic.Pointer[HashIndex]
}

// load returns the published accelerator, or nil. Lock-free.
func (s *accelSlot) load() *HashIndex { return s.idx.Load() }

// getOrBuild returns the published accelerator, constructing and publishing
// it under the slot lock when absent. Every caller observes the same fully
// built index; build runs at most once per publication. onBuild, when
// non-nil, observes the build's wall time — only the caller that actually
// performed the construction is notified (losers of the singleflight race
// pay wait time, not build time).
func (s *accelSlot) getOrBuild(build func() *HashIndex, onBuild func(time.Duration)) *HashIndex {
	if h := s.idx.Load(); h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.idx.Load(); h != nil {
		return h
	}
	var t0 time.Time
	if onBuild != nil {
		t0 = time.Now()
	}
	h := build()
	accelBuilds.Add(1)
	if onBuild != nil {
		onBuild(time.Since(t0))
	}
	s.idx.Store(h)
	return h
}

// drop unpublishes the accelerator (memory reclamation, cold-build
// benchmarks). A build already in flight republishes after the drop.
func (s *accelSlot) drop() { s.idx.Store(nil) }

// accelBuilds counts every accelerator construction that went through a
// publication point: the hash-index slot builds. The singleflight tests
// assert on deltas of this counter — under concurrent sessions each missing
// accelerator must be built exactly once.
var accelBuilds atomic.Int64

// AccelBuilds reports the cumulative number of published hash-index builds
// in this process.
func AccelBuilds() int64 { return accelBuilds.Load() }
