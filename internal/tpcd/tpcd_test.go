package tpcd

import (
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/moa"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 9)
	b := Generate(0.001, 9)
	if len(a.Items) != len(b.Items) || len(a.Orders) != len(b.Orders) {
		t.Fatal("cardinalities differ across runs")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs", i)
		}
	}
	c := Generate(0.001, 10)
	same := true
	for i := range a.Items {
		if a.Items[i] != c.Items[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateCardinalityRatios(t *testing.T) {
	db := Generate(0.01, 1)
	if got, want := len(db.Regions), 5; got != want {
		t.Errorf("regions = %d", got)
	}
	if got, want := len(db.Nations), 25; got != want {
		t.Errorf("nations = %d", got)
	}
	if got, want := len(db.Parts), 2000; got != want {
		t.Errorf("parts = %d, want %d", got, want)
	}
	if got, want := len(db.Suppliers), 100; got != want {
		t.Errorf("suppliers = %d, want %d", got, want)
	}
	if got, want := len(db.Customers), 1500; got != want {
		t.Errorf("customers = %d, want %d", got, want)
	}
	if got, want := len(db.Orders), 15000; got != want {
		t.Errorf("orders = %d, want %d", got, want)
	}
	if got, want := len(db.Supplies), len(db.Parts)*4; got != want {
		t.Errorf("supplies = %d, want %d (4 per part)", got, want)
	}
	// ~4 items per order on average (1..7 uniform)
	ratio := float64(len(db.Items)) / float64(len(db.Orders))
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("items/order = %.2f, want ≈ 4", ratio)
	}
}

// TPC-D consistency: every item's (supplier, part) pair exists in PartSupp —
// the invariant Q9 relies on.
func TestItemSupplierPartConsistency(t *testing.T) {
	db := Generate(0.002, 3)
	for i, it := range db.Items {
		if _, ok := db.SupplyCost(it.Supplier, it.Part); !ok {
			t.Fatalf("item %d: (supplier %d, part %d) not in PartSupp", i, it.Supplier, it.Part)
		}
	}
}

func TestGenerateReferenceIntegrity(t *testing.T) {
	db := Generate(0.002, 3)
	for i, it := range db.Items {
		if int(it.Order) >= len(db.Orders) || int(it.Part) >= len(db.Parts) ||
			int(it.Supplier) >= len(db.Suppliers) {
			t.Fatalf("item %d has dangling reference", i)
		}
		if it.Shipdate <= db.Orders[it.Order].Orderdate {
			t.Fatalf("item %d shipped before its order", i)
		}
		if it.Receiptdate <= it.Shipdate {
			t.Fatalf("item %d received before shipped", i)
		}
	}
	for o, ord := range db.Orders {
		for _, it := range ord.Items {
			if int(db.Items[it].Order) != o {
				t.Fatalf("order %d item list inconsistent", o)
			}
		}
		if len(ord.Items) < 1 || len(ord.Items) > 7 {
			t.Fatalf("order %d has %d items", o, len(ord.Items))
		}
	}
	for c, cust := range db.Customers {
		for _, o := range cust.Orders {
			if int(db.Orders[o].Cust) != c {
				t.Fatalf("customer %d order list inconsistent", c)
			}
		}
	}
	for s, sup := range db.Suppliers {
		for j := sup.SuppliesLo; j < sup.SuppliesHi; j++ {
			if int(db.Supplies[j].Supplier) != s {
				t.Fatalf("supplier %d supplies range inconsistent", s)
			}
		}
	}
}

func TestLoadProducesPaperLayout(t *testing.T) {
	db := Generate(0.002, 3)
	env, stats := Load(db)

	// every class has an extent and every attribute a tail-ordered BAT
	// with a datavector
	for _, class := range Schema().ClassNames() {
		if env[moa.ExtentBAT(class)] == nil {
			t.Fatalf("missing extent %s", class)
		}
	}
	for _, name := range []string{"Item_shipdate", "Order_clerk", "Customer_acctbal",
		"Supplier_supplies_cost", "Part_type", "Nation_region", "Region_name"} {
		b := env[name]
		if b == nil {
			t.Fatalf("missing attribute BAT %s", name)
		}
		if !b.Props.Has(bat.TOrdered) {
			t.Errorf("%s not tail-ordered", name)
		}
		if b.Datavector() == nil {
			t.Errorf("%s has no datavector", name)
		}
		if err := b.CheckProps(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// set indexes are head-ordered
	for _, name := range []string{"Supplier_supplies", "Customer_orders", "Order_item"} {
		b := env[name]
		if b == nil {
			t.Fatalf("missing set index %s", name)
		}
		if !b.Props.Has(bat.HOrdered) {
			t.Errorf("%s not head-ordered", name)
		}
	}
	if stats.BaseBytes <= 0 || stats.DVBytes <= 0 {
		t.Error("load stats missing sizes")
	}
	if stats.ClassSizes["Item"] != len(db.Items) {
		t.Error("class sizes wrong")
	}

	// datavector answers oid->value correctly for a spot sample
	sd := env["Item_shipdate"]
	dv := sd.Datavector()
	for i := 0; i < len(db.Items); i += 97 {
		pos, ok := dv.Probe(bat.OID(i))
		if !ok {
			t.Fatalf("probe(%d) missed", i)
		}
		if got := dv.Vector.Get(pos).I; got != int64(db.Items[i].Shipdate) {
			t.Fatalf("dv shipdate(%d) = %d, want %d", i, got, db.Items[i].Shipdate)
		}
	}
}

func TestClerkExistsAtAnyScale(t *testing.T) {
	small := Generate(0.001, 1) // 1 clerk
	clerk := small.Clerk()
	found := false
	for _, o := range small.Orders {
		if o.Clerk == clerk {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("clerk %s not present at tiny scale", clerk)
	}
	if !strings.HasPrefix(clerk, "Clerk#") {
		t.Fatalf("clerk format: %s", clerk)
	}
}

func TestQueriesTableComplete(t *testing.T) {
	db := Generate(0.001, 1)
	qs := Queries(db)
	if len(qs) != 15 {
		t.Fatalf("%d queries, want 15", len(qs))
	}
	for i, q := range qs {
		if q.Num != i+1 {
			t.Errorf("query %d numbered %d", i, q.Num)
		}
		if q.MOA == "" || q.Name == "" {
			t.Errorf("Q%d incomplete", q.Num)
		}
		if _, err := moa.Parse(q.MOA); err != nil {
			t.Errorf("Q%d does not parse: %v", q.Num, err)
		}
	}
	ordered := map[int]bool{3: true, 10: true}
	for _, q := range qs {
		if q.Ordered != ordered[q.Num] {
			t.Errorf("Q%d ordered flag = %v", q.Num, q.Ordered)
		}
	}
}

func TestReferenceUnknownQuery(t *testing.T) {
	db := Generate(0.001, 1)
	if _, err := Reference(db, 16); err == nil {
		t.Fatal("expected error for query 16")
	}
}

func TestCompareResults(t *testing.T) {
	names := []string{"a", "b"}
	mk := func(vals ...float64) *moa.SetVal {
		s := &moa.SetVal{}
		for i, v := range vals {
			s.Elems = append(s.Elems, moa.Elem{ID: bat.OID(i),
				V: &moa.TupleVal{Names: names, Fields: []moa.Val{bat.I(int64(i)), bat.F(v)}}})
		}
		return s
	}
	if err := CompareResults(mk(1, 2), mk(1, 2), false); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	// tiny float drift is tolerated
	a := mk(1.0000000001, 2)
	if err := CompareResults(a, mk(1, 2), false); err != nil {
		t.Errorf("drift rejected: %v", err)
	}
	if err := CompareResults(mk(1, 2), mk(1, 3), false); err == nil {
		t.Error("different values accepted")
	}
	if err := CompareResults(mk(1), mk(1, 2), false); err == nil {
		t.Error("cardinality mismatch accepted")
	}
	// ordered comparison checks the float key sequence
	g := &moa.SetVal{Elems: []moa.Elem{
		{ID: 0, V: &moa.TupleVal{Names: names, Fields: []moa.Val{bat.I(0), bat.F(2)}}},
		{ID: 1, V: &moa.TupleVal{Names: names, Fields: []moa.Val{bat.I(1), bat.F(1)}}},
	}}
	w := &moa.SetVal{Elems: []moa.Elem{
		{ID: 1, V: &moa.TupleVal{Names: names, Fields: []moa.Val{bat.I(1), bat.F(1)}}},
		{ID: 0, V: &moa.TupleVal{Names: names, Fields: []moa.Val{bat.I(0), bat.F(2)}}},
	}}
	if err := CompareResults(g, w, false); err != nil {
		t.Errorf("unordered compare must match: %v", err)
	}
	if err := CompareResults(g, w, true); err == nil {
		t.Error("ordered compare must reject swapped keys")
	}
}

func TestCompareNestedSets(t *testing.T) {
	mkSet := func(ids ...int) *moa.SetVal {
		s := &moa.SetVal{}
		for _, id := range ids {
			s.Elems = append(s.Elems, moa.Elem{ID: bat.OID(id), V: bat.I(int64(id))})
		}
		return s
	}
	a := &moa.SetVal{Elems: []moa.Elem{{ID: 0, V: mkSet(1, 2, 3)}}}
	b := &moa.SetVal{Elems: []moa.Elem{{ID: 9, V: mkSet(3, 2, 1)}}}
	if err := CompareResults(a, b, false); err != nil {
		t.Errorf("nested sets in different order must match: %v", err)
	}
	c := &moa.SetVal{Elems: []moa.Elem{{ID: 0, V: mkSet(1, 2)}}}
	if err := CompareResults(a, c, false); err == nil {
		t.Error("nested set cardinality mismatch accepted")
	}
}
