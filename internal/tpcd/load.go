package tpcd

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/bat"
	"repro/internal/mil"
)

// LoadStats reports the bulk-load cost split the paper gives in Section 6
// (ASCII import 1:28h; extents and datavectors ~30min; reordering on tail
// values ~1h) plus the resulting database size.
type LoadStats struct {
	BuildTime  time.Duration // constructing the oid-ordered attribute BATs
	AccelTime  time.Duration // extent + datavector creation and tail reorder
	BaseBytes  int64         // base data (tail-ordered BATs and set indexes)
	DVBytes    int64         // datavector accelerator storage
	ClassSizes map[string]int
}

// Load vertically decomposes the generated object database into BATs,
// following the procedure of Section 6: every attribute becomes an
// oid-ordered BAT [oid, value]; an extent[oid,void] is created per class;
// datavectors are created by projecting the tail column; finally all
// attribute BATs are reordered on tail values for efficient selections and
// joins. Set-valued attributes load as head-ordered index BATs plus one BAT
// per nested tuple field.
func Load(db *DB) (mil.Env, *LoadStats) {
	env := mil.Env{}
	stats := &LoadStats{ClassSizes: map[string]int{
		"Region": len(db.Regions), "Nation": len(db.Nations),
		"Part": len(db.Parts), "Supplier": len(db.Suppliers),
		"Customer": len(db.Customers), "Order": len(db.Orders),
		"Item": len(db.Items),
	}}

	type pendingAttr struct {
		name string
		bat  *bat.BAT
	}
	var pending []pendingAttr

	start := time.Now()
	attr := func(name string, col bat.Column) {
		b := bat.New(name, bat.NewVoid(0, col.Len()), col, 0)
		pending = append(pending, pendingAttr{name, b})
	}
	extent := func(class string, n int) { env[class] = newExtent(class, n) }
	setIndex := func(name string, pairs []setPair) {
		b := mergeSetIndex(name, nil, pairs)
		env[name] = b
		stats.BaseBytes += b.ByteSize()
	}

	// Region
	extent("Region", len(db.Regions))
	attr("Region_name", strCol(len(db.Regions), func(i int) string { return db.Regions[i].Name }))
	attr("Region_comment", strCol(len(db.Regions), func(i int) string { return db.Regions[i].Comment }))

	// Nation
	extent("Nation", len(db.Nations))
	attr("Nation_name", strCol(len(db.Nations), func(i int) string { return db.Nations[i].Name }))
	attr("Nation_region", oidCol(len(db.Nations), func(i int) bat.OID { return bat.OID(db.Nations[i].Region) }))

	// Part
	extent("Part", len(db.Parts))
	attr("Part_name", strCol(len(db.Parts), func(i int) string { return db.Parts[i].Name }))
	attr("Part_manufacturer", strCol(len(db.Parts), func(i int) string { return db.Parts[i].Manufacturer }))
	attr("Part_brand", strCol(len(db.Parts), func(i int) string { return db.Parts[i].Brand }))
	attr("Part_type", strCol(len(db.Parts), func(i int) string { return db.Parts[i].Type }))
	attr("Part_size", intCol(len(db.Parts), func(i int) int64 { return db.Parts[i].Size }))
	attr("Part_container", strCol(len(db.Parts), func(i int) string { return db.Parts[i].Container }))
	attr("Part_retailPrice", fltCol(len(db.Parts), func(i int) float64 { return db.Parts[i].RetailPrice }))

	// Supplier
	extent("Supplier", len(db.Suppliers))
	attr("Supplier_name", strCol(len(db.Suppliers), func(i int) string { return db.Suppliers[i].Name }))
	attr("Supplier_address", strCol(len(db.Suppliers), func(i int) string { return db.Suppliers[i].Address }))
	attr("Supplier_phone", strCol(len(db.Suppliers), func(i int) string { return db.Suppliers[i].Phone }))
	attr("Supplier_acctbal", fltCol(len(db.Suppliers), func(i int) float64 { return db.Suppliers[i].Acctbal }))
	attr("Supplier_nation", oidCol(len(db.Suppliers), func(i int) bat.OID { return bat.OID(db.Suppliers[i].Nation) }))

	// Supplier.supplies: index [supplier, supplyid] + one BAT per field
	{
		pairs := make([]setPair, len(db.Supplies))
		for s := range db.Suppliers {
			for j := db.Suppliers[s].SuppliesLo; j < db.Suppliers[s].SuppliesHi; j++ {
				pairs[j] = setPair{bat.OID(s), bat.OID(j)}
			}
		}
		setIndex("Supplier_supplies", pairs)
		attr("Supplier_supplies_part", oidCol(len(db.Supplies), func(i int) bat.OID { return bat.OID(db.Supplies[i].Part) }))
		attr("Supplier_supplies_cost", fltCol(len(db.Supplies), func(i int) float64 { return db.Supplies[i].Cost }))
		attr("Supplier_supplies_available", intCol(len(db.Supplies), func(i int) int64 { return db.Supplies[i].Available }))
	}

	// Customer
	extent("Customer", len(db.Customers))
	attr("Customer_name", strCol(len(db.Customers), func(i int) string { return db.Customers[i].Name }))
	attr("Customer_address", strCol(len(db.Customers), func(i int) string { return db.Customers[i].Address }))
	attr("Customer_phone", strCol(len(db.Customers), func(i int) string { return db.Customers[i].Phone }))
	attr("Customer_acctbal", fltCol(len(db.Customers), func(i int) float64 { return db.Customers[i].Acctbal }))
	attr("Customer_nation", oidCol(len(db.Customers), func(i int) bat.OID { return bat.OID(db.Customers[i].Nation) }))
	attr("Customer_mktsegment", strCol(len(db.Customers), func(i int) string { return db.Customers[i].Mktsegment }))

	// Order / Item: builders shared with the refresh-stream apply path
	// (refresh.go), which appends a batch's rows to exactly these entries.
	setIndex("Customer_orders", customerOrderPairs(db.Orders, 0))
	extent("Order", len(db.Orders))
	for _, nc := range orderColumns(db.Orders) {
		attr(nc.name, nc.col)
	}
	setIndex("Order_item", orderItemPairs(db.Orders, 0))

	extent("Item", len(db.Items))
	for _, nc := range itemColumns(db.Items) {
		attr(nc.name, nc.col)
	}

	stats.BuildTime = time.Since(start)

	// Accelerator phase: create datavectors (projection of the oid-ordered
	// tail, Fig. 7 step 1) and reorder every attribute BAT on tail values
	// (step 2).
	start = time.Now()
	for _, pa := range pending {
		withDV := bat.AttachDatavector(pa.bat)
		withDV.Persist()
		env[pa.name] = withDV
		stats.BaseBytes += withDV.ByteSize()
		stats.DVBytes += withDV.Datavector().ByteSize()
	}
	stats.AccelTime = time.Since(start)
	return env, stats
}

// newExtent builds a class extent [void,void] of n objects.
func newExtent(class string, n int) *bat.BAT {
	return bat.New(class, bat.NewVoid(0, n), bat.NewVoid(0, n), 0)
}

// namedCol is one attribute BAT's name and tail column, before extent and
// datavector attachment.
type namedCol struct {
	name string
	col  bat.Column
}

// orderColumns builds the Order attribute columns of the given rows, in
// row order. Load passes every order for the bulk load; ApplyRefresh passes
// only a batch's new orders and appends the resulting fragments to the
// previous epoch's columns (bat.AppendAttr), so both paths derive values by
// the identical code (determinism is what makes WAL replay bit-faithful).
func orderColumns(orders []Order) []namedCol {
	n := len(orders)
	return []namedCol{
		{"Order_cust", oidCol(n, func(i int) bat.OID { return bat.OID(orders[i].Cust) })},
		{"Order_status", chrCol(n, func(i int) byte { return orders[i].Status })},
		{"Order_totalprice", fltCol(n, func(i int) float64 { return orders[i].Totalprice })},
		{"Order_orderdate", dateCol(n, func(i int) int32 { return orders[i].Orderdate })},
		{"Order_orderpriority", strCol(n, func(i int) string { return orders[i].Orderpriority })},
		{"Order_clerk", strCol(n, func(i int) string { return orders[i].Clerk })},
		{"Order_shippriority", strCol(n, func(i int) string { return orders[i].Shippriority })},
	}
}

// itemColumns builds the Item attribute columns; see orderColumns.
func itemColumns(items []Item) []namedCol {
	n := len(items)
	return []namedCol{
		{"Item_part", oidCol(n, func(i int) bat.OID { return bat.OID(items[i].Part) })},
		{"Item_supplier", oidCol(n, func(i int) bat.OID { return bat.OID(items[i].Supplier) })},
		{"Item_order", oidCol(n, func(i int) bat.OID { return bat.OID(items[i].Order) })},
		{"Item_quantity", intCol(n, func(i int) int64 { return items[i].Quantity })},
		{"Item_returnflag", chrCol(n, func(i int) byte { return items[i].Returnflag })},
		{"Item_linestatus", chrCol(n, func(i int) byte { return items[i].Linestatus })},
		{"Item_extendedprice", fltCol(n, func(i int) float64 { return items[i].Extendedprice })},
		{"Item_discount", fltCol(n, func(i int) float64 { return items[i].Discount })},
		{"Item_tax", fltCol(n, func(i int) float64 { return items[i].Tax })},
		{"Item_shipdate", dateCol(n, func(i int) int32 { return items[i].Shipdate })},
		{"Item_commitdate", dateCol(n, func(i int) int32 { return items[i].Commitdate })},
		{"Item_receiptdate", dateCol(n, func(i int) int32 { return items[i].Receiptdate })},
		{"Item_shipmode", strCol(n, func(i int) string { return items[i].Shipmode })},
		{"Item_shipinstruct", strCol(n, func(i int) string { return items[i].Shipinstruct })},
	}
}

// setPair is one (owner, member) pair of a set index.
type setPair struct{ owner, member bat.OID }

// customerOrderPairs lists the Customer_orders pairs [customer, order] of
// the given orders, whose oids start at first, in oid order.
func customerOrderPairs(orders []Order, first int) []setPair {
	pairs := make([]setPair, len(orders))
	for i, o := range orders {
		pairs[i] = setPair{bat.OID(o.Cust), bat.OID(first + i)}
	}
	return pairs
}

// orderItemPairs lists the Order_item pairs [order, item] of the given
// orders, whose oids start at first, in oid order.
func orderItemPairs(orders []Order, first int) []setPair {
	var pairs []setPair
	for i, o := range orders {
		for _, it := range o.Items {
			pairs = append(pairs, setPair{bat.OID(first + i), bat.OID(it)})
		}
	}
	return pairs
}

// mergeSetIndex is the one builder of a head-ordered set index [owner,
// member]: it stable-sorts the new pairs by owner and merges each after
// prev's pairs of the same owner (bat.MergeAfter, keyed on the head). Load
// builds over no previous index (prev nil); ApplyRefresh grows the
// previous epoch's. Either way the result lists owners ascending and each
// owner's members in insertion order — the order HOrdered asserts, and the
// same index a from-scratch Load of the grown database builds.
func mergeSetIndex(name string, prev *bat.BAT, pairs []setPair) *bat.BAT {
	byOwner := func(a, b setPair) int { return cmp.Compare(a.owner, b.owner) }
	if !slices.IsSortedFunc(pairs, byOwner) {
		slices.SortStableFunc(pairs, byOwner)
	}
	owners, members := make([]bat.OID, len(pairs)), make([]bat.OID, len(pairs))
	for i, p := range pairs {
		owners[i], members[i] = p.owner, p.member
	}
	h, t := bat.Column(bat.NewOIDCol(nil)), bat.Column(bat.NewOIDCol(nil))
	if prev != nil {
		h, t = prev.H, prev.T
	}
	h, t = bat.MergeAfter(h, t, bat.NewOIDCol(owners), bat.NewOIDCol(members))
	ix := bat.New(name, h, t, bat.HOrdered)
	ix.Persist()
	return ix
}

func strCol(n int, f func(int) string) bat.Column {
	v := make([]string, n)
	for i := range v {
		v[i] = f(i)
	}
	return bat.NewStrColFromStrings(v)
}

func intCol(n int, f func(int) int64) bat.Column {
	v := make([]int64, n)
	for i := range v {
		v[i] = f(i)
	}
	return bat.NewIntCol(v)
}

func fltCol(n int, f func(int) float64) bat.Column {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return bat.NewFltCol(v)
}

func oidCol(n int, f func(int) bat.OID) bat.Column {
	v := make([]bat.OID, n)
	for i := range v {
		v[i] = f(i)
	}
	return bat.NewOIDCol(v)
}

func chrCol(n int, f func(int) byte) bat.Column {
	v := make([]byte, n)
	for i := range v {
		v[i] = f(i)
	}
	return bat.NewChrCol(v)
}

func dateCol(n int, f func(int) int32) bat.Column {
	v := make([]int32, n)
	for i := range v {
		v[i] = f(i)
	}
	return bat.NewDateCol(v)
}
