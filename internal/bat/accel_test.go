package bat

import (
	"math/rand"
	"sync"
	"testing"
)

// shuffledOIDCol builds a non-dense oid column (dense sequences take the
// arithmetic accelerator and skip the table build entirely).
func shuffledOIDCol(n int) *OIDCol {
	v := make([]OID, n)
	for i := range v {
		v[i] = OID(i)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return NewOIDCol(v)
}

// TestAccelSingleflight drives many goroutines at the same missing hash
// accelerator: exactly one build may run, and every caller must observe the
// same fully built index. They build through a mirror, whose head slot is
// its original's tail slot.
func TestAccelSingleflight(t *testing.T) {
	b := New("t", NewVoid(0, 1<<15), shuffledOIDCol(1<<15), 0)
	m := b.Mirror()
	before := AccelBuilds()

	const g = 16
	got := make([]*HashIndex, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.HeadHashSched(Sched{Workers: 2})
		}(i)
	}
	wg.Wait()

	if d := AccelBuilds() - before; d != 1 {
		t.Fatalf("concurrent HeadHashSched ran %d builds, want 1", d)
	}
	for i := 1; i < g; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d observed a different index", i)
		}
	}
	if !m.HasHeadHash() || m.HeadHash() != got[0] {
		t.Fatal("accelerator not published")
	}
	if d := AccelBuilds() - before; d != 1 {
		t.Fatalf("a second access rebuilt the index (%d builds)", d)
	}

	// Dropping through the original unpublishes the mirror's view; the next
	// use rebuilds once.
	b.DropHashes()
	if m.HasHeadHash() {
		t.Fatal("DropHashes left a published accelerator")
	}
	m.HeadHash()
	if d := AccelBuilds() - before; d != 2 {
		t.Fatalf("rebuild after drop ran %d builds total, want 2", d)
	}
}

// TestMirrorConcurrent: every goroutine gets the one cached mirror.
func TestMirrorConcurrent(t *testing.T) {
	b := New("t", NewVoid(0, 8), NewIntCol(make([]int64, 8)), 0)
	const g = 16
	got := make([]*BAT, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = b.Mirror()
		}(i)
	}
	wg.Wait()
	for i := 1; i < g; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different mirror", i)
		}
	}
	if got[0].Mirror() != b {
		t.Fatal("mirror of mirror is not the original")
	}
}
