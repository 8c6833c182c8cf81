package storage

// Advice is a storage access hint in the style of posix_madvise: the upper
// layers (bat columns and their operators) announce the access pattern
// they are about to execute, and a mapping-backed heap translates the hint
// into the platform's paging advice. On the simulator the hints are inert —
// the logical fault model depends only on the touches themselves — so the
// same call sites serve mapped columns and columns built in memory.
type Advice uint8

const (
	// AdviceNormal resets to the platform's default paging behaviour.
	AdviceNormal Advice = iota
	// AdviceSequential announces an in-order scan of the span: the pager
	// may read ahead aggressively and drop pages behind the cursor.
	AdviceSequential
	// AdviceWillNeed announces imminent random access within the span:
	// the pager should start faulting it in now.
	AdviceWillNeed
	// AdviceDontNeed announces the span is dead to this process: the pager
	// may reclaim its frames immediately (clean file pages re-fault from
	// the backing file).
	AdviceDontNeed
)

// Hinter receives access-pattern advice for one heap's byte span. It is
// implemented by heapfile mappings; a nil Hinter disables hinting (the
// in-memory and simulator regimes). Implementations must be safe for
// concurrent use and must tolerate spans that exceed the mapping.
type Hinter interface {
	Advise(a Advice, off, n int64)
}

// HintMinBytes is the smallest touch span worth a hint syscall. Per-BUN
// touches (TouchPositions) and sub-threshold ranges stay syscall-free: the MMU
// will demand-page them anyway, and a madvise per probe would cost more
// than the fault it predicts. 16 pages amortizes the syscall ~16×.
const HintMinBytes = 16 * DefaultPageSize
