// Package relational is the non-decomposed comparator used to put the
// flattened Monet execution in context, standing in for the IBM DB2 numbers
// the paper quotes (Section 6, Fig. 9) and for the E_rel side of the
// Section 5.2.2 cost model: an N-ary slotted row store with inverted-list
// indexes and a straightforward select-project-join-group executor.
package relational

import (
	"sort"

	"repro/internal/bat"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// Table is an N-ary table of boxed rows. Rows are fixed-width for the fault
// model: width = (ncols+1) * w, matching the cost model's C_rel.
type Table struct {
	Name string
	Cols []string
	Rows [][]bat.Value

	heap     storage.HeapID
	rowWidth int64
	indexes  map[int]*Index
}

// NewTable creates an empty table with the given column names.
func NewTable(name string, cols ...string) *Table {
	return &Table{
		Name:     name,
		Cols:     cols,
		heap:     storage.NextHeapID(),
		rowWidth: int64((len(cols) + 1) * 4),
		indexes:  map[int]*Index{},
	}
}

// Append adds a row.
func (t *Table) Append(row ...bat.Value) { t.Rows = append(t.Rows, row) }

// Col returns the position of a named column (-1 if absent).
func (t *Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Scan visits every row sequentially, touching each page once.
func (t *Table) Scan(tr *storage.Tracker, visit func(id int, row []bat.Value)) {
	tr.TouchRange(t.heap, 0, int64(len(t.Rows))*t.rowWidth)
	for i, r := range t.Rows {
		visit(i, r)
	}
}

// Fetch retrieves one row by id — an unclustered access touching the row's
// page (the second term of E_rel).
func (t *Table) Fetch(tr *storage.Tracker, id int) []bat.Value {
	tr.Touch(t.heap, int64(id)*t.rowWidth)
	return t.Rows[id]
}

// ByteSize reports the table's storage footprint.
func (t *Table) ByteSize() int64 { return int64(len(t.Rows)) * t.rowWidth }

// Index is an inverted list on one column: an ordered array of
// [value, row-pointer] records, as the cost model assumes (C_inv = B/2w).
type Index struct {
	keys []bat.Value // sorted distinct values
	pos  map[bat.Value][]int32
	heap storage.HeapID
	n    int64 // total entries
}

// IndexOn returns (building and caching on first use) the inverted list on
// column col.
func (t *Table) IndexOn(col int) *Index {
	if ix, ok := t.indexes[col]; ok {
		return ix
	}
	ix := &Index{pos: make(map[bat.Value][]int32), heap: storage.NextHeapID(), n: int64(len(t.Rows))}
	for i, r := range t.Rows {
		v := r[col]
		if _, seen := ix.pos[v]; !seen {
			ix.keys = append(ix.keys, v)
		}
		ix.pos[v] = append(ix.pos[v], int32(i))
	}
	sort.Slice(ix.keys, func(i, j int) bool { return bat.Less(ix.keys[i], ix.keys[j]) })
	t.indexes[col] = ix
	return ix
}

// Lookup returns the row ids holding v, touching the index pages the entries
// occupy.
func (ix *Index) Lookup(tr *storage.Tracker, v bat.Value) []int32 {
	ids := ix.pos[v]
	tr.TouchRange(ix.heap, 0, int64(len(ids))*8)
	return ids
}

// LookupRange returns the row ids with lo <= value <= hi (nil bound =
// unbounded), touching the index pages scanned.
func (ix *Index) LookupRange(tr *storage.Tracker, lo, hi *bat.Value, loIncl, hiIncl bool) []int32 {
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.keys), func(i int) bool {
			c := bat.Compare(ix.keys[i], *lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.keys)
	if hi != nil {
		end = sort.Search(len(ix.keys), func(i int) bool {
			c := bat.Compare(ix.keys[i], *hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	var ids []int32
	for _, k := range ix.keys[start:end] {
		ids = append(ids, ix.pos[k]...)
	}
	tr.TouchRange(ix.heap, 0, int64(len(ids))*8)
	return ids
}

// Store is the relational TPC-D database: the classic eight-table schema.
type Store struct {
	Region, Nation, Part, Supplier, PartSupp, Customer, Orders, Lineitem *Table
	Pager                                                                *storage.Pager
}

// Column positions, mirroring the TPC-D relational schema.
const (
	RName                                                       = 0 // region
	NName, NRegion                                              = 0, 1
	PName, PMfgr, PBrand, PType, PSize, PContainer, PRetail     = 0, 1, 2, 3, 4, 5, 6
	SName, SAddr, SPhone, SAcct, SNation                        = 0, 1, 2, 3, 4
	PSSupp, PSPart, PSCost, PSAvail                             = 0, 1, 2, 3
	CName, CAddr, CPhone, CAcct, CNation, CSegment              = 0, 1, 2, 3, 4, 5
	OCust, OStatus, OTotal, ODate, OPriority, OClerk, OShipPrio = 0, 1, 2, 3, 4, 5, 6
	LPart, LSupp, LOrder, LQty, LFlag, LStatus, LPrice, LDisc, LTax,
	LShip, LCommit, LReceipt, LMode, LInstruct = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13
)

// Load populates the row store from the same generated database the BAT
// loader uses, so both systems answer over identical data.
func Load(db *tpcd.DB) *Store {
	s := &Store{
		Region:   NewTable("region", "name"),
		Nation:   NewTable("nation", "name", "region"),
		Part:     NewTable("part", "name", "mfgr", "brand", "type", "size", "container", "retailprice"),
		Supplier: NewTable("supplier", "name", "address", "phone", "acctbal", "nation"),
		PartSupp: NewTable("partsupp", "supplier", "part", "cost", "available"),
		Customer: NewTable("customer", "name", "address", "phone", "acctbal", "nation", "mktsegment"),
		Orders:   NewTable("orders", "cust", "status", "totalprice", "orderdate", "orderpriority", "clerk", "shippriority"),
		Lineitem: NewTable("lineitem", "part", "supplier", "order", "quantity", "returnflag",
			"linestatus", "extendedprice", "discount", "tax",
			"shipdate", "commitdate", "receiptdate", "shipmode", "shipinstruct"),
	}
	for _, r := range db.Regions {
		s.Region.Append(bat.S(r.Name))
	}
	for _, n := range db.Nations {
		s.Nation.Append(bat.S(n.Name), bat.I(int64(n.Region)))
	}
	for _, p := range db.Parts {
		s.Part.Append(bat.S(p.Name), bat.S(p.Manufacturer), bat.S(p.Brand),
			bat.S(p.Type), bat.I(p.Size), bat.S(p.Container), bat.F(p.RetailPrice))
	}
	for _, sp := range db.Suppliers {
		s.Supplier.Append(bat.S(sp.Name), bat.S(sp.Address), bat.S(sp.Phone),
			bat.F(sp.Acctbal), bat.I(int64(sp.Nation)))
	}
	for _, ps := range db.Supplies {
		s.PartSupp.Append(bat.I(int64(ps.Supplier)), bat.I(int64(ps.Part)),
			bat.F(ps.Cost), bat.I(ps.Available))
	}
	for _, c := range db.Customers {
		s.Customer.Append(bat.S(c.Name), bat.S(c.Address), bat.S(c.Phone),
			bat.F(c.Acctbal), bat.I(int64(c.Nation)), bat.S(c.Mktsegment))
	}
	for _, o := range db.Orders {
		s.Orders.Append(bat.I(int64(o.Cust)), bat.C(o.Status), bat.F(o.Totalprice),
			bat.D(o.Orderdate), bat.S(o.Orderpriority), bat.S(o.Clerk), bat.S(o.Shippriority))
	}
	for _, it := range db.Items {
		s.Lineitem.Append(bat.I(int64(it.Part)), bat.I(int64(it.Supplier)), bat.I(int64(it.Order)),
			bat.I(it.Quantity), bat.C(it.Returnflag), bat.C(it.Linestatus),
			bat.F(it.Extendedprice), bat.F(it.Discount), bat.F(it.Tax),
			bat.D(it.Shipdate), bat.D(it.Commitdate), bat.D(it.Receiptdate),
			bat.S(it.Shipmode), bat.S(it.Shipinstruct))
	}
	return s
}

// ByteSize reports the store's total data footprint.
func (s *Store) ByteSize() int64 {
	total := int64(0)
	for _, t := range []*Table{s.Region, s.Nation, s.Part, s.Supplier,
		s.PartSupp, s.Customer, s.Orders, s.Lineitem} {
		total += t.ByteSize()
	}
	return total
}
