package bat

import (
	"math/bits"
	"runtime/debug"
	"sync"
)

// This file is the radix-partitioned parallel build backend. Accelerator and
// grouper construction used to be strictly sequential loops over one global
// hash table; for large BATs that is both the Amdahl floor of every parallel
// probe (the probe sides already scale, the build does not) and a cache-miss
// generator (each insert touches a random bucket in an array far larger than
// the caches). Radix partitioning fixes both at once, exactly as in Monet's
// lineage of partitioned hash algorithms: rows are first scattered into P
// disjoint partitions by key-hash radix, then each partition is built
// independently — touching only a cache-sized slice of the table — and the
// per-partition results are stitched back together so that the observable
// result (chain-walk order, group slot order, cardinalities) is bit-identical
// to the sequential build. Because partitions are disjoint, the per-partition
// step parallelizes with no synchronization beyond a final join.

// parallelDo runs fn(0..k-1) on k goroutines (inline when k <= 1). A panic
// on any spawned goroutine is recovered there and re-raised on the caller as
// a *WorkerPanic after every goroutine finished: an unrecovered goroutine
// panic would kill the whole process, which a multi-session server cannot
// afford for a single query's fault.
func parallelDo(k int, fn func(w int)) {
	if k <= 1 {
		if k == 1 {
			fn(0)
		}
		return
	}
	var panicMu sync.Mutex
	var firstPanic *WorkerPanic
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if firstPanic == nil {
						firstPanic = &WorkerPanic{Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// SplitRange cuts [0, n) into at most k contiguous pieces. It is the one
// range-chunking helper for both the kernel layer and the MIL operators'
// parallel iteration.
func SplitRange(n, k int) [][2]int { return splitRange(n, k) }

// splitRange cuts [0, n) into at most k contiguous pieces.
func splitRange(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	chunk, rem := n/k, n%k
	start := 0
	for i := 0; i < k; i++ {
		end := start + chunk
		if i < rem {
			end++
		}
		if end > start {
			out = append(out, [2]int{start, end})
		}
		start = end
	}
	return out
}

func log2(p int) uint { return uint(bits.TrailingZeros(uint(p))) }

// scattered holds rows radix-partitioned by key hash: partition p owns
// rows[off[p]:off[p+1]] (row indices ascending within the partition, because
// the scatter is a stable left-to-right pass) with reps carrying the matching
// key representations, so per-partition passes never fault back into the
// original row order.
type scattered struct {
	P    int
	off  []int32
	rows []int32
	reps []uint64
}

// scatterByHash partitions rows by (fibHash(rep[i]) & mask) >> shift using up
// to `workers` goroutines for the histogram and scatter passes. The layout is
// independent of the worker count: per partition, worker w's rows (all lower
// than worker w+1's) are written first, so rows stay globally ascending
// within each partition.
func scatterByHash(rep []uint64, p int, mask uint32, shift uint, workers int) scattered {
	n := len(rep)
	bounds := splitRange(n, workers)
	w := len(bounds)
	if w == 0 {
		return scattered{P: p, off: make([]int32, p+1), rows: nil, reps: nil}
	}
	cnt := make([][]int32, w)
	parallelDo(w, func(wi int) {
		c := make([]int32, p)
		for i := bounds[wi][0]; i < bounds[wi][1]; i++ {
			c[(fibHash(rep[i])&mask)>>shift]++
		}
		cnt[wi] = c
	})
	off := make([]int32, p+1)
	cur := int32(0)
	for pi := 0; pi < p; pi++ {
		off[pi] = cur
		for wi := 0; wi < w; wi++ {
			c := cnt[wi][pi]
			cnt[wi][pi] = cur // becomes worker wi's write cursor in partition pi
			cur += c
		}
	}
	off[p] = cur
	rows := make([]int32, n)
	reps := make([]uint64, n)
	parallelDo(w, func(wi int) {
		cursors := cnt[wi]
		for i := bounds[wi][0]; i < bounds[wi][1]; i++ {
			x := rep[i]
			pi := (fibHash(x) & mask) >> shift
			k := cursors[pi]
			rows[k] = int32(i)
			reps[k] = x
			cursors[pi] = k + 1
		}
	})
	return scattered{P: p, off: off, rows: rows, reps: reps}
}

// ---------------------------------------------------------------------------
// Partitioned grouping: the parallel counterpart of a sequential Grouper
// scan, with identical slot assignment.

// GroupSlots is the result of a (possibly partitioned) grouping pass: the
// dense slot of every row, slots numbered in global first-occurrence order —
// exactly the ids a sequential Grouper scan hands out.
type GroupSlots struct {
	// Slots holds the group slot of each row.
	Slots []int32
	// First holds the first-occurrence row of each slot, ascending (slot
	// order is first-occurrence order).
	First []int32
	// PartRows lists each radix partition's rows (ascending). Groups never
	// span partitions, so consumers may accumulate per-group state over
	// partitions concurrently without synchronization.
	PartRows [][]int32
}

// groupPartitions picks the radix fan-out for a partitioned grouping: enough
// partitions to feed (and load-balance across) the workers, capped so the
// stitch stays cheap.
func groupPartitions(workers int) int {
	p := nextPow2(workers * 4)
	if p > 256 {
		p = 256
	}
	if p < 2 {
		p = 2
	}
	return p
}

// BuildGroupSlotsPartitioned assigns group slots to every row of rep by
// radix-partitioned parallel grouping. eq settles rep collisions exactly as
// in NewGrouper (nil when rep equality is conclusive). The result is
// bit-identical to a sequential Grouper scan: equal keys always share a
// radix partition, so per-partition Groupers discover the same groups, and
// the stitch renumbers the partition-local slots by global first-occurrence
// row.
func BuildGroupSlotsPartitioned(rep []uint64, eq KeyEq, workers int) *GroupSlots {
	return buildGroupsPartitioned(rep, eq, Sched{Workers: workers})
}

// BuildGroupSlotsPartitionedSched is BuildGroupSlotsPartitioned under an
// explicit work schedule (see Sched); every schedule yields the identical
// grouping.
func BuildGroupSlotsPartitionedSched(rep []uint64, eq KeyEq, s Sched) *GroupSlots {
	return buildGroupsPartitioned(rep, eq, s)
}

func buildGroupsPartitioned(rep []uint64, eq KeyEq, s Sched) *GroupSlots {
	n := len(rep)
	p := groupPartitions(s.Workers)
	sc := scatterByHash(rep, p, ^uint32(0), 32-log2(p), s.Workers)
	slots := make([]int32, n)
	firsts := make([][]int32, p)
	// Partitions are the grouping's morsels: a skewed key distribution
	// concentrates rows in the hot keys' partitions, and the morsel queue
	// lets the other workers drain the rest instead of idling. Results are
	// indexed by partition, so claim order is unobservable.
	s.Dispatch(p, func(_, pi int) {
		lo, hi := sc.off[pi], sc.off[pi+1]
		g := NewGrouper(eq)
		for k := lo; k < hi; k++ {
			row := sc.rows[k]
			slots[row], _ = g.Slot(sc.reps[k], row)
		}
		firsts[pi] = g.Rows()
	})
	// Stitch: the global slot of a group is the rank of its first-occurrence
	// row among all first-occurrence rows. Mark the first rows, then one
	// ascending pass assigns ranks in place (only marked entries are ever
	// read back, so reusing the mark array is unambiguous).
	total := 0
	for _, f := range firsts {
		total += len(f)
	}
	rank := make([]int32, n)
	for _, f := range firsts {
		for _, r := range f {
			rank[r] = 1
		}
	}
	first := make([]int32, 0, total)
	for row := 0; row < n; row++ {
		if rank[row] == 1 {
			rank[row] = int32(len(first))
			first = append(first, int32(row))
		}
	}
	s.Dispatch(p, func(_, pi int) {
		lf := firsts[pi]
		for k := sc.off[pi]; k < sc.off[pi+1]; k++ {
			row := sc.rows[k]
			slots[row] = rank[lf[slots[row]]]
		}
	})
	parts := make([][]int32, p)
	for pi := 0; pi < p; pi++ {
		parts[pi] = sc.rows[sc.off[pi]:sc.off[pi+1]]
	}
	return &GroupSlots{Slots: slots, First: first, PartRows: parts}
}
