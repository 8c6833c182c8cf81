package bat

import "math/bits"

// This file is the radix-partitioned layout of large hash builds. A counting
// sort over one global bucket array far larger than the caches is a
// cache-miss generator: each insert touches a random bucket. Radix
// partitioning confines it, as in Monet's lineage of partitioned hash
// algorithms: rows are first scattered into P disjoint partitions by the top
// bits of their bucket, then each partition is counting-sorted on its own —
// touching only a cache-sized slice of the table. Bucket entries stay
// ascending by row either way, so the partitioned build is bit-identical to
// the unpartitioned one. The build is sequential: no statement of the
// Figure-9 queries or of the lookups builds an index over enough rows to
// engage parallel iteration.

func log2(p int) uint { return uint(bits.TrailingZeros(uint(p))) }

// scattered holds rows radix-partitioned by key hash: partition p owns
// rows[off[p]:off[p+1]] (row indices ascending within the partition, because
// the scatter is a stable left-to-right pass) with reps carrying the matching
// key representations, so per-partition passes never fault back into the
// original row order.
type scattered struct {
	off  []int32
	rows []int32
	reps []uint64
}

// scatterByHash partitions rows by (fibHash(rep[i]) & mask) >> shift into p
// partitions: one histogram pass, one stable scatter pass.
func scatterByHash(rep []uint64, p int, mask uint32, shift uint) scattered {
	off := make([]int32, p+1)
	for _, x := range rep {
		off[(fibHash(x)&mask)>>shift+1]++
	}
	for pi := 0; pi < p; pi++ {
		off[pi+1] += off[pi]
	}
	cursors := append([]int32(nil), off[:p]...)
	rows := make([]int32, len(rep))
	reps := make([]uint64, len(rep))
	for i, x := range rep {
		pi := (fibHash(x) & mask) >> shift
		k := cursors[pi]
		rows[k] = int32(i)
		reps[k] = x
		cursors[pi] = k + 1
	}
	return scattered{off: off, rows: rows, reps: reps}
}
