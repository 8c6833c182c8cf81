package tpcd

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"sync"

	"repro/internal/bat"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/storage/heapfile"
)

// TPC-D refresh stream (RF1-style): batches of new orders with their line
// items, referencing the existing customer/part/supplier population. A
// batch is the unit of ingest — it is serialized as the WAL payload,
// validated against the immutable reference population, and applied to the
// previous epoch's BATs alone: the Order and Item extents grow, each
// attribute BAT takes the batch's sorted run into its tail order (never
// re-sorting the rows it already holds) and its datavector's vector grows
// in place, and the Order_item and Customer_orders set indexes merge in the
// batch's pairs. Every other env entry is shared pointer-wise with the
// previous epoch, so warm accelerators on unchanged columns survive swaps.
// No row-shaped copy of the database takes part: the BATs are the
// database, and their heap-file checkpoints are its durable form.

// RefreshItem is one new line item in a refresh order. Derived fields
// (return flag, line status) are carried explicitly so a batch is
// self-contained: apply never re-derives, which keeps replay bit-faithful
// even if derivation rules evolve.
type RefreshItem struct {
	Part          int32   `json:"part"`
	Supplier      int32   `json:"supplier"`
	Quantity      int64   `json:"quantity"`
	Returnflag    byte    `json:"returnflag"`
	Linestatus    byte    `json:"linestatus"`
	Extendedprice float64 `json:"extendedprice"`
	Discount      float64 `json:"discount"`
	Tax           float64 `json:"tax"`
	Shipdate      int32   `json:"shipdate"`
	Commitdate    int32   `json:"commitdate"`
	Receiptdate   int32   `json:"receiptdate"`
	Shipmode      string  `json:"shipmode"`
	Shipinstruct  string  `json:"shipinstruct"`
}

// RefreshOrder is one new order in a refresh batch.
type RefreshOrder struct {
	Cust          int32         `json:"cust"`
	Status        byte          `json:"status"`
	Totalprice    float64       `json:"totalprice"`
	Orderdate     int32         `json:"orderdate"`
	Orderpriority string        `json:"orderpriority"`
	Clerk         string        `json:"clerk"`
	Shippriority  string        `json:"shippriority"`
	Items         []RefreshItem `json:"items"`
}

// RefreshBatch is one ingest payload.
type RefreshBatch struct {
	Orders []RefreshOrder `json:"orders"`
}

// EncodeRefresh serializes a batch as a WAL payload.
func EncodeRefresh(b *RefreshBatch) ([]byte, error) { return json.Marshal(b) }

// DecodeRefresh parses a WAL payload back into a batch.
func DecodeRefresh(p []byte) (*RefreshBatch, error) {
	var b RefreshBatch
	if err := json.Unmarshal(p, &b); err != nil {
		return nil, fmt.Errorf("refresh batch: %w", err)
	}
	return &b, nil
}

// GenRefresh generates a deterministic refresh batch of n new orders
// against db's reference population, with the same value distributions and
// derivation rules as the bulk generator. It reads only fields that are
// immutable after Generate (population sizes, part prices, part→supplier
// candidates), so it is safe to call while another goroutine applies a
// batch.
func GenRefresh(db *DB, seed int64, n int) *RefreshBatch {
	rng := rand.New(rand.NewSource(seed))
	nCustomers := len(db.Customers)
	nParts := len(db.Parts)
	nClerks := scaled(clerksPerSF, db.SF)
	dateRange := int(endDate.I - startDate.I)

	b := &RefreshBatch{Orders: make([]RefreshOrder, 0, n)}
	for o := 0; o < n; o++ {
		odate := int32(startDate.I) + int32(rng.Intn(dateRange-151))
		ord := RefreshOrder{
			Cust:          int32(rng.Intn(nCustomers)),
			Orderdate:     odate,
			Orderpriority: pick(rng, priorities),
			Clerk:         fmt.Sprintf("Clerk#%09d", 1+rng.Intn(nClerks)),
			Shippriority:  "0",
		}
		nItems := 1 + rng.Intn(7)
		var total float64
		allF := true
		anyF := false
		for k := 0; k < nItems; k++ {
			p := int32(rng.Intn(nParts))
			sups := db.partSuppliers[p]
			s := sups[rng.Intn(len(sups))]
			qty := int64(1 + rng.Intn(50))
			price := db.Parts[p].RetailPrice * float64(qty) / 10
			ship := odate + int32(1+rng.Intn(121))
			it := RefreshItem{
				Part: p, Supplier: s,
				Quantity:      qty,
				Extendedprice: price,
				Discount:      float64(rng.Intn(11)) / 100,
				Tax:           float64(rng.Intn(9)) / 100,
				Shipdate:      ship,
				Commitdate:    odate + int32(30+rng.Intn(61)),
				Receiptdate:   ship + int32(1+rng.Intn(30)),
				Shipmode:      pick(rng, shipmodes),
				Shipinstruct:  pick(rng, instructs),
			}
			if int64(it.Receiptdate) <= currentDate.I {
				if rng.Intn(2) == 0 {
					it.Returnflag = 'R'
				} else {
					it.Returnflag = 'A'
				}
			} else {
				it.Returnflag = 'N'
			}
			if int64(ship) > currentDate.I {
				it.Linestatus = 'O'
				allF = false
			} else {
				it.Linestatus = 'F'
				anyF = true
			}
			total += price * (1 - it.Discount) * (1 + it.Tax)
			ord.Items = append(ord.Items, it)
		}
		switch {
		case allF && anyF:
			ord.Status = 'F'
		case !anyF:
			ord.Status = 'O'
		default:
			ord.Status = 'P'
		}
		ord.Totalprice = total
		b.Orders = append(b.Orders, ord)
	}
	return b
}

// ValidateRefresh checks a batch against db's immutable reference data:
// every order references an existing customer, every item an existing
// (supplier, part) pair from PartSupp (the TPC-D consistency rule Q9
// depends on), and quantities are positive. Validation runs before the WAL
// append — a batch that cannot apply must never become durable.
func ValidateRefresh(db *DB, b *RefreshBatch) error {
	if len(b.Orders) == 0 {
		return fmt.Errorf("empty batch")
	}
	for oi, o := range b.Orders {
		if o.Cust < 0 || int(o.Cust) >= len(db.Customers) {
			return fmt.Errorf("order %d: customer %d out of range [0,%d)", oi, o.Cust, len(db.Customers))
		}
		if len(o.Items) == 0 {
			return fmt.Errorf("order %d: no items", oi)
		}
		for ii, it := range o.Items {
			if it.Part < 0 || int(it.Part) >= len(db.Parts) {
				return fmt.Errorf("order %d item %d: part %d out of range [0,%d)", oi, ii, it.Part, len(db.Parts))
			}
			if it.Supplier < 0 || int(it.Supplier) >= len(db.Suppliers) {
				return fmt.Errorf("order %d item %d: supplier %d out of range [0,%d)", oi, ii, it.Supplier, len(db.Suppliers))
			}
			if _, ok := db.supplyIndex[[2]int32{it.Supplier, it.Part}]; !ok {
				return fmt.Errorf("order %d item %d: supplier %d does not supply part %d", oi, ii, it.Supplier, it.Part)
			}
			if it.Quantity <= 0 {
				return fmt.Errorf("order %d item %d: quantity %d must be positive", oi, ii, it.Quantity)
			}
		}
	}
	return nil
}

// ApplyRefresh builds the next epoch's env from the previous epoch's BATs
// and a validated batch: the Order and Item extents grow by the batch's
// rows (their current lengths number the new oids); every Order_* and
// Item_* attribute BAT takes the batch's column fragment through
// bat.AppendAttr, which sorts only the k new rows, places them by k typed
// binary searches and copies the n old rows in runs between them — O(n +
// k log n) per column, plus O(k) to grow the datavector's vector in place;
// Order_item and Customer_orders grow by the same merge of the batch's
// pairs (mergeSetIndex). The
// result is bit-identical to a from-scratch Load of the grown database.
// Everything else is shared with base pointer-wise, so unchanged BATs keep
// their identity (and their warm accelerators) across the swap. Returns the
// new env and the byte size of the new BATs — the epoch's owned bytes.
func ApplyRefresh(base mil.Env, b *RefreshBatch) (mil.Env, int64, error) {
	firstOrder, firstItem := base["Order"].Len(), base["Item"].Len()
	orders, items := batchRows(b, firstOrder, firstItem)
	env := maps.Clone(base)
	var owned int64
	appendAttrs := func(frags []namedCol) {
		for _, nc := range frags {
			withDV := bat.AppendAttr(base[nc.name], nc.col)
			withDV.Persist()
			env[nc.name] = withDV
			owned += withDV.ByteSize() + withDV.Datavector().ByteSize()
		}
	}
	setIndex := func(name string, pairs []setPair) {
		ix := mergeSetIndex(name, base[name], pairs)
		env[name] = ix
		owned += ix.ByteSize()
	}

	env["Order"] = newExtent("Order", firstOrder+len(orders))
	appendAttrs(orderColumns(orders))
	setIndex("Order_item", orderItemPairs(orders, firstOrder))

	env["Item"] = newExtent("Item", firstItem+len(items))
	appendAttrs(itemColumns(items))
	setIndex("Customer_orders", customerOrderPairs(orders, firstOrder))

	return env, owned, nil
}

// batchRows flattens a batch into the Order and Item rows it appends,
// numbering orders from firstOrder and items from firstItem.
func batchRows(b *RefreshBatch, firstOrder, firstItem int) ([]Order, []Item) {
	orders := make([]Order, 0, len(b.Orders))
	var items []Item
	for _, ro := range b.Orders {
		ord := Order{
			Cust:          ro.Cust,
			Status:        ro.Status,
			Totalprice:    ro.Totalprice,
			Orderdate:     ro.Orderdate,
			Orderpriority: ro.Orderpriority,
			Clerk:         ro.Clerk,
			Shippriority:  ro.Shippriority,
		}
		oid := int32(firstOrder + len(orders))
		for _, ri := range ro.Items {
			ord.Items = append(ord.Items, int32(firstItem+len(items)))
			items = append(items, Item{
				Part: ri.Part, Supplier: ri.Supplier, Order: oid,
				Quantity:      ri.Quantity,
				Returnflag:    ri.Returnflag,
				Linestatus:    ri.Linestatus,
				Extendedprice: ri.Extendedprice,
				Discount:      ri.Discount,
				Tax:           ri.Tax,
				Shipdate:      ri.Shipdate,
				Commitdate:    ri.Commitdate,
				Receiptdate:   ri.Receiptdate,
				Shipmode:      ri.Shipmode,
				Shipinstruct:  ri.Shipinstruct,
			})
		}
		orders = append(orders, ord)
	}
	return orders, items
}

// applyObjects appends a batch to db's row slices, keeping an in-memory
// store's *DB in step with its env (the OpenStore contract for Dir == "").
func applyObjects(db *DB, b *RefreshBatch) {
	orders, items := batchRows(b, len(db.Orders), len(db.Items))
	for i, o := range orders {
		db.Customers[o.Cust].Orders = append(db.Customers[o.Cust].Orders, int32(len(db.Orders)+i))
	}
	db.Orders = append(db.Orders, orders...)
	db.Items = append(db.Items, items...)
}

// DurableConfig configures OpenStore.
type DurableConfig struct {
	// Dir is the WAL + checkpoint directory; empty runs in-memory.
	Dir string
	// SF and Seed identify the deterministic genesis database. They are
	// recorded as the store meta, so a data directory can never be replayed
	// against a different genesis.
	SF   float64
	Seed int64
	// SnapshotEvery checkpoints the env as columnar heap files in Dir
	// after every N ingests (0: never). A fresh Dir serves genesis from
	// memory; a restart serves the newest checkpoint's mapped columns.
	SnapshotEvery int
	// Hooks optionally injects crash points (tests only).
	Hooks *epoch.Hooks
}

// OpenStore opens the epoch store and returns it with the reference
// population: the generated genesis database that GenRefresh and
// ValidateRefresh read (customers, parts, suppliers and their supply
// pairs, which no ingest changes). With a Dir, recovery loads the newest
// verified checkpoint and replays the WAL past it; the DB is never
// advanced. Without one, the DB's Order and Item rows also follow every
// ingest, so it stays equal to the database the current env flattens.
func OpenStore(cfg DurableConfig) (*epoch.Store, *DB, error) {
	st, lazy, err := OpenStoreLazy(cfg)
	if err != nil {
		return nil, nil, err
	}
	return st, lazy(), nil
}

// OpenStoreLazy is OpenStore for read-mostly servers: the reference
// population is generated on first use — building genesis on a directory
// with no checkpoint, validating or generating refresh batches — instead
// of unconditionally at open. A server that recovers from a checkpoint and
// only answers queries never generates it at all. The returned accessor is
// safe for concurrent use and always yields the same *DB.
func OpenStoreLazy(cfg DurableConfig) (*epoch.Store, func() *DB, error) {
	var (
		dbOnce sync.Once
		lazyDB *DB
	)
	db := func() *DB {
		dbOnce.Do(func() { lazyDB = Generate(cfg.SF, cfg.Seed) })
		return lazyDB
	}
	opts := epoch.Options{
		Dir:  cfg.Dir,
		Meta: []byte(fmt.Sprintf("tpcd sf=%g seed=%d", cfg.SF, cfg.Seed)),
		Genesis: func() mil.Env {
			env, _ := Load(db())
			return env
		},
		Validate: func(p []byte) error {
			b, err := DecodeRefresh(p)
			if err != nil {
				return err
			}
			return ValidateRefresh(db(), b)
		},
		Apply: func(base mil.Env, p []byte) (mil.Env, int64, error) {
			b, err := DecodeRefresh(p)
			if err != nil {
				return nil, 0, err
			}
			env, owned, err := ApplyRefresh(base, b)
			if err == nil && cfg.Dir == "" {
				applyObjects(db(), b)
			}
			return env, owned, err
		},
		SnapshotEvery: cfg.SnapshotEvery,
		Hooks:         cfg.Hooks,
	}

	var loaded []*heapfile.Store
	if cfg.Dir != "" {
		hc := &heapCheckpointer{hooks: cfg.Hooks}
		opts.SaveEnv = hc.save
		opts.LoadEnv = func(dir string) (mil.Env, error) {
			env, s, err := loadEnvHeap(dir)
			if err != nil {
				return nil, err
			}
			loaded = append(loaded, s)
			hc.seed(dir, s.Manifest(), env)
			return env, nil
		}
	}

	st, err := epoch.Open(opts)
	if err != nil {
		for _, s := range loaded {
			s.Close()
		}
		return nil, nil, err
	}
	// Mappings must outlive every epoch that serves views over them; the
	// store's closer list is exactly that lifetime.
	for _, s := range loaded {
		st.AddCloser(s)
	}
	return st, db, nil
}
