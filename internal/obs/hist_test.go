package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 0}, // le 2^0 = 1ns
		{2, 1}, // le 2^1
		{3, 2}, // le 2^2
		{4, 2}, // exact power: own bound
		{5, 3},
		{1024, 10},
		{1025, 11},
		{time.Duration(1) << 39, 39},
		{time.Duration(1)<<39 + 1, HistBuckets}, // overflow
		{time.Hour, HistBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// Every observation must land in exactly one bucket: Σ buckets == count,
// and the nanosecond sum must be exact. This is the same conservation
// discipline the server test asserts against moaserve_queries_total.
func TestHistConservation(t *testing.T) {
	var h Hist
	var wantSum uint64
	n := 10000
	for i := 0; i < n; i++ {
		d := time.Duration(i*i) * time.Nanosecond
		h.Observe(d)
		wantSum += uint64(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(n) {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("sum of buckets = %d, count = %d; every observation must land in exactly one bucket", bucketTotal, s.Count)
	}
	if s.SumNanos != wantSum {
		t.Fatalf("sumNanos = %d, want %d", s.SumNanos, wantSum)
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	// Concurrent scrapes must be safe (not necessarily conserved mid-flight).
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("at quiesce, sum of buckets = %d != count %d", bucketTotal, s.Count)
	}
}

func TestNilHist(t *testing.T) {
	var h *Hist
	h.Observe(time.Second) // must not panic: nil fast path
	s := h.Snapshot()
	if s.Count != 0 {
		t.Error("nil hist snapshot should be zero")
	}
}

func TestWriteProm(t *testing.T) {
	var h Hist
	h.Observe(500 * time.Nanosecond)
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	var buf bytes.Buffer
	h.Snapshot().WriteProm(&buf, "test_latency_seconds")
	out := buf.String()

	for _, want := range []string{
		"test_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"test_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "test_latency_seconds_sum 0.0055") {
		t.Errorf("output missing sum ≈ 0.0055s:\n%s", out)
	}
	// Cumulative counts must be non-decreasing and end at count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_latency_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative bucket count decreased: %q after %d", line, last)
		}
		last = v
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket count = %d, want 3", last)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Hist
	b.RunParallel(func(pb *testing.PB) {
		d := 123 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}
