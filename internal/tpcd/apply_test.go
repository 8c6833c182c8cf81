package tpcd

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
)

// applyShapes are the batch shapes the append-merge must place exactly as a
// full re-sort would.
var applyShapes = []string{"generated", "append", "ties", "prefixes"}

// shapedBatch builds one batch of the named shape against db's current
// state:
//
//   - generated: a GenRefresh batch, the shape ingest serves;
//   - append: every key sorts at or after every existing one (Item_supplier
//     excepted: it must stay a supplier of the part), from the last
//     customer — the merge degenerates to a pure append;
//   - ties: copies of existing orders and their items, so every key ties
//     with an existing row and must sort after it; customers 0 and last, two
//     orders for customer 0 within the batch;
//   - prefixes: string keys that are prefixes and extensions of existing
//     ones, the empty string, and minimal numbers (a pure prepend).
func shapedBatch(db *DB, shape string, seed int64) *RefreshBatch {
	lastCust := int32(len(db.Customers) - 1)
	switch shape {
	case "generated":
		return GenRefresh(db, seed, 10)
	case "append":
		p := int32(len(db.Parts) - 1)
		it := RefreshItem{Part: p, Supplier: db.partSuppliers[p][0], Quantity: 1 << 40,
			Returnflag: '~', Linestatus: '~', Extendedprice: 1e15, Discount: 9, Tax: 9,
			Shipdate: 1 << 30, Commitdate: 1 << 30, Receiptdate: 1 << 30, Shipmode: "~~", Shipinstruct: "~~"}
		o := RefreshOrder{Cust: lastCust, Status: '~', Totalprice: 1e15, Orderdate: 1 << 30,
			Orderpriority: "~~", Clerk: "~~", Shippriority: "~~", Items: []RefreshItem{it, it}}
		return &RefreshBatch{Orders: []RefreshOrder{o, o}}
	case "ties":
		b := &RefreshBatch{}
		for i, cust := range []int32{0, lastCust, 0} {
			src := db.Orders[i*(len(db.Orders)-1)/2]
			o := RefreshOrder{Cust: cust, Status: src.Status, Totalprice: src.Totalprice,
				Orderdate: src.Orderdate, Orderpriority: src.Orderpriority, Clerk: src.Clerk,
				Shippriority: src.Shippriority}
			for _, ii := range src.Items {
				it := db.Items[ii]
				o.Items = append(o.Items, RefreshItem{Part: it.Part, Supplier: it.Supplier,
					Quantity: it.Quantity, Returnflag: it.Returnflag, Linestatus: it.Linestatus,
					Extendedprice: it.Extendedprice, Discount: it.Discount, Tax: it.Tax,
					Shipdate: it.Shipdate, Commitdate: it.Commitdate, Receiptdate: it.Receiptdate,
					Shipmode: it.Shipmode, Shipinstruct: it.Shipinstruct})
			}
			b.Orders = append(b.Orders, o)
		}
		return b
	case "prefixes":
		variants := func(s string) []string { return []string{"", s[:len(s)-1], s + "\x00", s + "0", s} }
		src, item := db.Orders[0], db.Items[0]
		clerks, prios := variants(src.Clerk), variants(src.Orderpriority)
		modes, instrs := variants(item.Shipmode), variants(item.Shipinstruct)
		b := &RefreshBatch{}
		for i := range clerks {
			it := RefreshItem{Part: 0, Supplier: db.partSuppliers[0][0], Quantity: 1,
				Returnflag: 0, Linestatus: 0, Extendedprice: -1, Discount: -1, Tax: -1,
				Shipdate: -1, Commitdate: -1, Receiptdate: -1, Shipmode: modes[i], Shipinstruct: instrs[i]}
			b.Orders = append(b.Orders, RefreshOrder{Cust: int32(i) * lastCust / 4, Status: 0,
				Totalprice: -1, Orderdate: -1, Orderpriority: prios[i], Clerk: clerks[i],
				Shippriority: "", Items: []RefreshItem{it}})
		}
		return b
	}
	panic("unknown batch shape " + shape)
}

// TestApplyEqualsLoad is the differential test of the append-merge: after
// applied batches, every BAT ApplyRefresh produces must equal what a
// from-scratch Load of the same advanced db builds — properties, head/tail
// values, column layout (a void head stays void), datavector, byte sizes —
// and the epoch's owned bytes must equal the rebuilt entries' sizes. The
// "sim" cases merge onto columns built in memory, the "mmap" case onto the
// mapped columns of a checkpoint.
func TestApplyEqualsLoad(t *testing.T) {
	apply := func(t *testing.T, shapes []string) {
		db := Generate(testSF, testSeed)
		env, _ := Load(db)
		var owned int64
		for i, shape := range shapes {
			b := shapedBatch(db, shape, int64(i))
			var err error
			if env, owned, err = ApplyRefresh(env, b); err != nil {
				t.Fatalf("apply %d (%s): %v", i, shape, err)
			}
			applyObjects(db, b)
		}
		assertEqualsLoad(t, db, env, owned)
	}
	for _, shape := range applyShapes {
		t.Run("sim/1/"+shape, func(t *testing.T) { apply(t, []string{shape}) })
	}
	t.Run("sim/20", func(t *testing.T) {
		var shapes []string
		for i := 0; i < 20; i++ {
			shapes = append(shapes, applyShapes[i%len(applyShapes)])
		}
		apply(t, shapes)
	})

	// Across a restart. With a checkpoint (mmap) the third ingest
	// checkpoints and the reopen maps that checkpoint and replays the
	// fourth over it, so every later merge reads mapped columns as prev.
	// Without one (sim) the reopen replays all four over genesis built in
	// memory. The durable store's DB never advances, so the test keeps its
	// own mirror of the batches it sent.
	for _, mode := range []struct {
		name  string
		every int
	}{{"mmap", 3}, {"sim", 0}} {
		t.Run(mode.name+"/reopen", func(t *testing.T) {
			cfg := DurableConfig{Dir: t.TempDir(), SF: testSF, Seed: testSeed, SnapshotEvery: mode.every}
			db := Generate(testSF, testSeed)
			ingest := func(from, to int) {
				st, _, err := OpenStore(cfg)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				defer st.Close()
				var owned int64
				for i := from; i < to; i++ {
					b := shapedBatch(db, applyShapes[i%len(applyShapes)], int64(i))
					p, err := EncodeRefresh(b)
					if err != nil {
						t.Fatal(err)
					}
					ep, err := st.Ingest(p)
					if err != nil {
						t.Fatalf("ingest %d: %v", i, err)
					}
					applyObjects(db, b)
					owned = ep.Owned
				}
				assertEqualsLoad(t, db, st.Manager().Current().Env, owned)
			}
			ingest(0, 4)
			ingest(4, 8)
		})
	}
}

// TestApplyForkCopies applies two different batches to the same base env.
// The first grows the base's datavector vectors in place; the second finds
// their claims moved and copies. Each result equals a Load of its own
// database, and the first still does after the second apply.
func TestApplyForkCopies(t *testing.T) {
	dbA, dbB := Generate(testSF, testSeed), Generate(testSF, testSeed)
	env, _ := Load(dbA)
	// Load's vectors have no spare capacity: this apply copies them into
	// arrays that do.
	first := GenRefresh(dbA, 1, 10)
	env, _, err := ApplyRefresh(env, first)
	if err != nil {
		t.Fatal(err)
	}
	applyObjects(dbA, first)
	applyObjects(dbB, first)

	a, b := GenRefresh(dbA, 2, 10), GenRefresh(dbB, 3, 10)
	envA, ownedA, err := ApplyRefresh(env, a)
	if err != nil {
		t.Fatal(err)
	}
	applyObjects(dbA, a)
	envB, ownedB, err := ApplyRefresh(env, b)
	if err != nil {
		t.Fatal(err)
	}
	applyObjects(dbB, b)

	// grew reports whether next's vector extends base's backing array.
	grew := func(next mil.Env, name string) bool {
		v, p := next[name].Datavector().Vector, env[name].Datavector().Vector
		return bat.SameColumn(bat.SliceView(v, 0, p.Len()), p)
	}
	for _, name := range rebuiltNames() {
		if env[name].Datavector() == nil {
			continue
		}
		if !grew(envA, name) {
			t.Errorf("%s: the first apply copied the vector", name)
		}
		if grew(envB, name) {
			t.Errorf("%s: the second apply wrote into the claimed vector", name)
		}
	}
	assertEqualsLoad(t, dbB, envB, ownedB)
	assertEqualsLoad(t, dbA, envA, ownedA)
}

// assertEqualsLoad compares every entry ApplyRefresh produces against a
// fresh Load(db).
func assertEqualsLoad(t *testing.T, db *DB, got mil.Env, owned int64) {
	t.Helper()
	want, _ := Load(db)
	var wantOwned int64
	for _, name := range rebuiltNames() {
		g, w := got[name], want[name]
		if err := sameBAT(g, w); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		wantOwned += w.ByteSize()
		if dv := w.Datavector(); dv != nil {
			wantOwned += dv.ByteSize()
		}
	}
	if owned != wantOwned {
		t.Errorf("owned bytes %d, rebuild's %d", owned, wantOwned)
	}
}

func sameBAT(g, w *bat.BAT) error {
	if g.Props != w.Props {
		return fmt.Errorf("props %v, want %v", g.Props, w.Props)
	}
	if err := sameColumn(g.H, w.H); err != nil {
		return fmt.Errorf("head: %v", err)
	}
	if err := sameColumn(g.T, w.T); err != nil {
		return fmt.Errorf("tail: %v", err)
	}
	gdv, wdv := g.Datavector(), w.Datavector()
	if (gdv == nil) != (wdv == nil) {
		return fmt.Errorf("datavector present %v, want %v", gdv != nil, wdv != nil)
	}
	if gdv == nil {
		return nil
	}
	if gdv.Base != wdv.Base || gdv.Len() != wdv.Len() {
		return fmt.Errorf("datavector extent %d+%d, want %d+%d", gdv.Base, gdv.Len(), wdv.Base, wdv.Len())
	}
	if err := sameColumn(gdv.Vector, wdv.Vector); err != nil {
		return fmt.Errorf("datavector vector: %v", err)
	}
	return nil
}

// sameColumn compares layout (concrete type, view or owning), length,
// every value and byte size.
func sameColumn(g, w bat.Column) error {
	if reflect.TypeOf(g) != reflect.TypeOf(w) {
		return fmt.Errorf("layout %T, want %T", g, w)
	}
	if g.Len() != w.Len() {
		return fmt.Errorf("%d rows, want %d", g.Len(), w.Len())
	}
	if g.ByteSize() != w.ByteSize() || g.OwnedBytes() != w.OwnedBytes() {
		return fmt.Errorf("%d/%d bytes (size/owned), want %d/%d", g.ByteSize(), g.OwnedBytes(), w.ByteSize(), w.OwnedBytes())
	}
	if gv, ok := g.(*bat.VoidCol); ok && *gv != *w.(*bat.VoidCol) {
		return fmt.Errorf("void seq %d, want %d", gv.Seq, w.(*bat.VoidCol).Seq)
	}
	for i := 0; i < g.Len(); i++ {
		if g.Get(i) != w.Get(i) {
			return fmt.Errorf("row %d: %v, want %v", i, g.Get(i), w.Get(i))
		}
	}
	return nil
}
