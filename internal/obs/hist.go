// Package obs holds the serving tier's observability primitives: a
// lock-free fixed-bucket log₂ latency histogram with a Prometheus text
// renderer. The paper's evaluation is an
// observability exercise (Figures 9/10 are per-statement resource traces);
// this package provides the always-on service-level counterpart — cheap
// enough to sit on every query completion, structured enough to answer
// "where did the time go" without attaching a profiler.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite histogram buckets. Bucket i counts
// observations with upper bound 2^i nanoseconds (bucket 0: [0ns, 1ns],
// bucket 39: (~4.6min (2^38ns), ~9.2min (2^39ns)]); anything larger lands in
// the overflow bucket. Log₂ bounds make Observe a single bits.Len64 — no
// search, no float math — at a worst-case quantile error of one octave,
// which is the right trade for a histogram that sits on the hot path of
// every query completion.
const HistBuckets = 40

// Hist is a lock-free log₂ latency histogram. Observe is wait-free (two
// atomic adds); Snapshot is a racy-but-consistent-enough read (each counter
// is individually atomic; a scrape concurrent with observes may see an
// observation in count but not yet in a bucket — the conservation tests
// assert equality only at quiesce). The zero value is ready to use.
type Hist struct {
	buckets  [HistBuckets + 1]atomic.Uint64 // last entry is the overflow (+Inf) bucket
	sumNanos atomic.Uint64
	count    atomic.Uint64
}

// bucketOf maps a duration to its bucket index: the smallest i with
// d <= 2^i ns.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	n := uint64(d)
	i := bits.Len64(n)
	// 2^(i-1) <= n < 2^i, so n fits bucket i — except exact powers of two,
	// which fit their own bound (le is inclusive).
	if n == 1<<(i-1) {
		i--
	}
	if i > HistBuckets {
		return HistBuckets // overflow bucket
	}
	return i
}

// Observe records one duration. Negative durations count as zero.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.sumNanos.Add(uint64(d))
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram's counters.
type HistSnapshot struct {
	Buckets  [HistBuckets + 1]uint64
	SumNanos uint64
	Count    uint64
}

// Snapshot copies the histogram counters.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.SumNanos = h.sumNanos.Load()
	s.Count = h.count.Load()
	return s
}

// BucketBound reports the inclusive upper bound of finite bucket i.
func BucketBound(i int) time.Duration { return time.Duration(uint64(1) << uint(i)) }

// WriteProm renders the snapshot in the Prometheus text exposition format
// (cumulative _bucket series with le labels in seconds, _sum in seconds,
// _count), matching what a promhttp histogram would emit for the same name.
func (s HistSnapshot) WriteProm(w io.Writer, name string) {
	var cum uint64
	for i := 0; i <= HistBuckets; i++ {
		cum += s.Buckets[i]
		if i == HistBuckets {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		} else if s.Buckets[i] != 0 || boundaryBucket(i) {
			// Keep the series readable: always emit a spine of round
			// boundaries (1µs, 1ms, ~1s octaves) plus every non-empty
			// bucket; cumulative counts stay exact because cum carries
			// skipped buckets forward.
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, BucketBound(i).Seconds(), cum)
		}
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(s.SumNanos).Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// boundaryBucket marks the always-emitted spine buckets: ~1µs (2^10),
// ~1ms (2^20), ~1s (2^30), ~17min-overflow edge (2^39).
func boundaryBucket(i int) bool {
	switch i {
	case 10, 20, 30, HistBuckets - 1:
		return true
	}
	return false
}
