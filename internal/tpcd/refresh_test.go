package tpcd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
)

const (
	testSF   = 0.001
	testSeed = 7
)

// batFingerprint renders one BAT's full logical content.
func batFingerprint(b *bat.BAT) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%d:", b.Len())
	for i := 0; i < b.Len(); i++ {
		fmt.Fprintf(&sb, "[%s,%s]", b.HeadValue(i), b.TailValue(i))
	}
	return sb.String()
}

// rebuiltNames are the BATs ApplyRefresh rebuilds — the surface recovery
// must reconstruct bit-identically.
func rebuiltNames() []string {
	names := []string{"Order", "Item", "Order_item", "Customer_orders"}
	// namedCol lists are static; no rows yield the names
	for _, nc := range orderColumns(nil) {
		names = append(names, nc.name)
	}
	for _, nc := range itemColumns(nil) {
		names = append(names, nc.name)
	}
	return names
}

func TestGenRefreshDeterministicAndValid(t *testing.T) {
	db := Generate(testSF, testSeed)
	b1 := GenRefresh(db, 42, 25)
	b2 := GenRefresh(db, 42, 25)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("GenRefresh is not deterministic for a fixed seed")
	}
	if len(b1.Orders) != 25 {
		t.Fatalf("generated %d orders, want 25", len(b1.Orders))
	}
	if err := ValidateRefresh(db, b1); err != nil {
		t.Fatalf("generated batch fails validation: %v", err)
	}
	// Codec round trip.
	p, err := EncodeRefresh(b1)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeRefresh(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(b1, back) {
		t.Fatal("encode/decode round trip altered the batch")
	}
	// A different seed must give a different batch (sanity on the rng wiring).
	if reflect.DeepEqual(b1, GenRefresh(db, 43, 25)) {
		t.Fatal("different seeds produced identical batches")
	}
}

// TestApplyRefreshDeterministic rebuilds the same epoch twice from scratch —
// two independent genesis databases, the same payload sequence — and checks
// every rebuilt BAT matches bit-for-bit. This is the property WAL replay
// depends on: recovery must reconstruct exactly the epoch that was served.
func TestApplyRefreshDeterministic(t *testing.T) {
	run := func() mil.Env {
		db := Generate(testSF, testSeed)
		env, _ := Load(db)
		for i := 0; i < 3; i++ {
			b := GenRefresh(db, int64(100+i), 10)
			p, err := EncodeRefresh(b)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			back, err := DecodeRefresh(p)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			env2, owned, err := ApplyRefresh(env, back)
			if err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
			if owned <= 0 {
				t.Fatalf("apply %d reported owned=%d, want > 0", i, owned)
			}
			env = env2
		}
		return env
	}
	envA, envB := run(), run()
	for _, name := range rebuiltNames() {
		a, b := envA[name], envB[name]
		if a == nil || b == nil {
			t.Fatalf("%s missing from rebuilt env", name)
		}
		if batFingerprint(a) != batFingerprint(b) {
			t.Errorf("%s diverged between two identical rebuilds", name)
		}
	}
}

// TestApplyRefreshProps checks the kernel-maintained properties on every
// rebuilt BAT actually hold — the dynamic optimizer picks algorithms by
// them, so a stale property after a merge would mean silently wrong plans.
func TestApplyRefreshProps(t *testing.T) {
	db := Generate(testSF, testSeed)
	env, _ := Load(db)
	b := GenRefresh(db, 9, 20)
	p, _ := EncodeRefresh(b)
	env2, _, err := ApplyRefresh(env, mustDecode(t, p))
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	for _, name := range rebuiltNames() {
		if err := env2[name].CheckProps(); err != nil {
			t.Errorf("rebuilt %s: %v", name, err)
		}
	}
}

func mustDecode(t *testing.T, p []byte) *RefreshBatch {
	t.Helper()
	b, err := DecodeRefresh(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestApplyRefreshSharesUnchangedBATs: copy-on-write means only the Order
// and Item families are rebuilt; everything else must keep its pointer
// identity (and with it, warm accelerators) across the epoch swap.
func TestApplyRefreshSharesUnchangedBATs(t *testing.T) {
	db := Generate(testSF, testSeed)
	env, _ := Load(db)
	b := GenRefresh(db, 5, 10)
	env2, _, err := ApplyRefresh(env, b)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	rebuilt := make(map[string]bool)
	for _, n := range rebuiltNames() {
		rebuilt[n] = true
	}
	for name, old := range env {
		switch {
		case rebuilt[name]:
			if env2[name] == old {
				t.Errorf("%s should have been rebuilt but kept its pointer", name)
			}
		default:
			if env2[name] != old {
				t.Errorf("%s should be shared pointer-wise across the swap", name)
			}
		}
	}
	// The base env itself must be untouched (it is a published epoch).
	if env["Order"].Len() == env2["Order"].Len() {
		t.Error("apply did not grow the Order extent")
	}
}

func TestValidateRefreshRejections(t *testing.T) {
	db := Generate(testSF, testSeed)
	good := GenRefresh(db, 3, 2)
	cases := []struct {
		name string
		mut  func(b *RefreshBatch)
	}{
		{"empty batch", func(b *RefreshBatch) { b.Orders = nil }},
		{"customer out of range", func(b *RefreshBatch) { b.Orders[0].Cust = int32(len(db.Customers)) }},
		{"negative customer", func(b *RefreshBatch) { b.Orders[0].Cust = -1 }},
		{"order with no items", func(b *RefreshBatch) { b.Orders[1].Items = nil }},
		{"part out of range", func(b *RefreshBatch) { b.Orders[0].Items[0].Part = int32(len(db.Parts)) }},
		{"supplier out of range", func(b *RefreshBatch) { b.Orders[0].Items[0].Supplier = int32(len(db.Suppliers)) }},
		{"zero quantity", func(b *RefreshBatch) { b.Orders[0].Items[0].Quantity = 0 }},
		{"supplier does not supply part", func(b *RefreshBatch) {
			// Find a (supplier, part) pair absent from PartSupp.
			it := &b.Orders[0].Items[0]
			for s := int32(0); int(s) < len(db.Suppliers); s++ {
				if _, ok := db.supplyIndex[[2]int32{s, it.Part}]; !ok {
					it.Supplier = s
					return
				}
			}
			t.Skip("every supplier supplies the part at this scale")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := EncodeRefresh(good)
			b := mustDecode(t, p) // deep copy so mutations don't leak across cases
			tc.mut(b)
			if err := ValidateRefresh(db, b); err == nil {
				t.Fatal("validation accepted a malformed batch")
			}
		})
	}
	if err := ValidateRefresh(db, good); err != nil {
		t.Fatalf("good batch rejected after mutation tests: %v", err)
	}
}

// TestOpenStoreRecovery ingests through the durable store, reopens the
// directory, and checks the recovered epoch matches the pre-restart state —
// the tpcd-level version of the epoch package's crash matrix. The DB a
// durable store returns is the reference population and never advances.
func TestOpenStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{Dir: dir, SF: testSF, Seed: testSeed, SnapshotEvery: 2}

	st, db, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	genesisOrders := len(db.Orders)
	const ingests = 3
	for i := 0; i < ingests; i++ {
		b := GenRefresh(db, int64(i+1), 8)
		p, err := EncodeRefresh(b)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		ep, err := st.Ingest(p)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if ep.ID != uint64(i+1) {
			t.Fatalf("ingest %d published epoch %d, want %d", i, ep.ID, i+1)
		}
	}
	wantOrders := genesisOrders + ingests*8
	if n := st.Manager().Current().Env["Order"].Len(); n != wantOrders {
		t.Fatalf("Order extent holds %d orders, want %d", n, wantOrders)
	}
	if len(db.Orders) != genesisOrders {
		t.Fatalf("durable store advanced its reference DB to %d orders", len(db.Orders))
	}
	wantFP := make(map[string]string)
	for _, n := range rebuiltNames() {
		wantFP[n] = batFingerprint(st.Manager().Current().Env[n])
	}
	st.Close()

	rec, _, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if rec.Recoveries() != 1 {
		t.Errorf("recoveries = %d, want 1", rec.Recoveries())
	}
	if id := rec.Manager().CurrentID(); id != ingests {
		t.Fatalf("recovered epoch %d, want %d", id, ingests)
	}
	env := rec.Manager().Current().Env
	if n := env["Order"].Len(); n != wantOrders {
		t.Fatalf("recovered Order extent holds %d orders, want %d", n, wantOrders)
	}
	for _, n := range rebuiltNames() {
		if got := batFingerprint(env[n]); got != wantFP[n] {
			t.Errorf("recovered %s does not match pre-restart state", n)
		}
	}
}

// TestInMemoryStoreDBFollowsIngest pins the contract an in-memory store's
// callers rely on (the benchmark's answer mirror): after Ingest, the DB
// OpenStore returned holds every ingested order and item, and a fresh Load
// of it equals the store's current env.
func TestInMemoryStoreDBFollowsIngest(t *testing.T) {
	st, db, err := OpenStore(DurableConfig{SF: testSF, Seed: testSeed})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	orders0, items0 := len(db.Orders), len(db.Items)
	var sent []RefreshOrder
	nItems := 0
	for i := 0; i < 3; i++ {
		b := GenRefresh(db, int64(i+1), 8)
		p, err := EncodeRefresh(b)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := st.Ingest(p); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		sent = append(sent, b.Orders...)
		for _, o := range b.Orders {
			nItems += len(o.Items)
		}
	}
	if len(db.Orders) != orders0+len(sent) || len(db.Items) != items0+nItems {
		t.Fatalf("DB holds %d orders / %d items, want %d / %d",
			len(db.Orders), len(db.Items), orders0+len(sent), items0+nItems)
	}
	for i, o := range sent {
		got := db.Orders[orders0+i]
		if got.Cust != o.Cust || got.Clerk != o.Clerk || len(got.Items) != len(o.Items) {
			t.Fatalf("ingested order %d: DB holds %+v, batch sent %+v", i, got, o)
		}
	}
	want, _ := Load(db)
	if envFingerprint(t, want) != envFingerprint(t, st.Manager().Current().Env) {
		t.Fatal("Load of the store's DB differs from the store's current env")
	}
}
