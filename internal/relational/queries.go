package relational

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bat"
	"repro/internal/moa"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// Result is one executed baseline query with its Fig. 9 measures.
type Result struct {
	Set     *moa.SetVal
	Elapsed time.Duration
	Faults  uint64
}

// run is one execution of a query: the store plus the query's own tracker,
// which attributes its touches of the shared pool (nil without a Pager).
type run struct {
	*Store
	tr *storage.Tracker
}

// Run executes TPC-D query num on the row store. The result uses the same
// field layout as the MOA engine so that both validate against the same
// reference evaluator.
func (s *Store) Run(db *tpcd.DB, num int) (*Result, error) {
	r := &run{Store: s, tr: s.Pager.NewTracker()}
	start := time.Now()
	var out *moa.SetVal
	switch num {
	case 1:
		out = r.q1()
	case 2:
		out = r.q2()
	case 3:
		out = r.q3()
	case 4:
		out = r.q4()
	case 5:
		out = r.q5()
	case 6:
		out = r.q6()
	case 7:
		out = r.q7()
	case 8:
		out = r.q8()
	case 9:
		out = r.q9()
	case 10:
		out = r.q10()
	case 11:
		out = r.q11()
	case 12:
		out = r.q12()
	case 13:
		out = r.q13(db.Clerk())
	case 14:
		out = r.q14()
	case 15:
		out = r.q15()
	default:
		return nil, fmt.Errorf("relational: no query %d", num)
	}
	return &Result{Set: out, Elapsed: time.Since(start), Faults: r.tr.Faults()}, nil
}

func date(s string) bat.Value { return bat.MustDate(s) }

func yearOf(days int64) int64 {
	return int64(time.Unix(days*86400, 0).UTC().Year())
}

func tup(names []string, vals ...moa.Val) *moa.TupleVal {
	return &moa.TupleVal{Names: names, Fields: vals}
}

func setOf(elems []moa.Elem) *moa.SetVal { return &moa.SetVal{Elems: elems} }

func (s *run) regionName(row []bat.Value) string {
	return s.Region.Fetch(s.tr, int(row[NRegion].I))[RName].S
}

func (s *run) q1() *moa.SetVal {
	cutoff := date("1998-09-02")
	type acc struct {
		qty, cnt                 int64
		base, disc, charge, dsum float64
	}
	groups := map[[2]byte]*acc{}
	var order [][2]byte
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if r[LShip].I > cutoff.I {
			return
		}
		k := [2]byte{byte(r[LFlag].I), byte(r[LStatus].I)}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
			order = append(order, k)
		}
		a.qty += r[LQty].I
		a.cnt++
		a.base += r[LPrice].F
		dp := r[LPrice].F * (1 - r[LDisc].F)
		a.disc += dp
		a.charge += dp * (1 + r[LTax].F)
		a.dsum += r[LDisc].F
	})
	names := []string{"returnflag", "linestatus", "sum_qty", "sum_base_price",
		"sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order"}
	var elems []moa.Elem
	for i, k := range order {
		a := groups[k]
		n := float64(a.cnt)
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names,
			bat.C(k[0]), bat.C(k[1]), bat.I(a.qty), bat.F(a.base), bat.F(a.disc),
			bat.F(a.charge), bat.F(float64(a.qty)/n), bat.F(a.base/n),
			bat.F(a.dsum/n), bat.I(a.cnt))})
	}
	return setOf(elems)
}

func (s *run) q2() *moa.SetVal {
	// index-assisted: parts of size 15, then partsupp probes
	sizeIdx := s.Part.IndexOn(PSize)
	psByPart := s.PartSupp.IndexOn(PSPart)
	type qual struct {
		psID int32
	}
	var quals []qual
	minCost := map[int64]float64{}
	for _, pid := range sizeIdx.Lookup(s.tr, bat.I(15)) {
		part := s.Part.Fetch(s.tr, int(pid))
		ty := part[PType].S
		if len(ty) < 5 || ty[len(ty)-5:] != "BRASS" {
			continue
		}
		for _, psID := range psByPart.Lookup(s.tr, bat.I(int64(pid))) {
			ps := s.PartSupp.Fetch(s.tr, int(psID))
			sup := s.Supplier.Fetch(s.tr, int(ps[PSSupp].I))
			nat := s.Nation.Fetch(s.tr, int(sup[SNation].I))
			if s.regionName(nat) != "EUROPE" {
				continue
			}
			quals = append(quals, qual{psID})
			p := ps[PSPart].I
			if c, ok := minCost[p]; !ok || ps[PSCost].F < c {
				minCost[p] = ps[PSCost].F
			}
		}
	}
	names := []string{"s_acctbal", "s_name", "n_name", "p", "cost"}
	var elems []moa.Elem
	for _, q := range quals {
		ps := s.PartSupp.Fetch(s.tr, int(q.psID))
		if ps[PSCost].F != minCost[ps[PSPart].I] {
			continue
		}
		sup := s.Supplier.Fetch(s.tr, int(ps[PSSupp].I))
		nat := s.Nation.Fetch(s.tr, int(sup[SNation].I))
		elems = append(elems, moa.Elem{ID: bat.OID(q.psID), V: tup(names,
			sup[SAcct], sup[SName], nat[NName], bat.O(bat.OID(ps[PSPart].I)), ps[PSCost])})
	}
	return setOf(elems)
}

func (s *run) q3() *moa.SetVal {
	cut := date("1995-03-15")
	rev := map[int64]float64{}
	var order []int64
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if r[LShip].I <= cut.I {
			return
		}
		o := s.Orders.Fetch(s.tr, int(r[LOrder].I))
		if o[ODate].I >= cut.I {
			return
		}
		c := s.Customer.Fetch(s.tr, int(o[OCust].I))
		if c[CSegment].S != "BUILDING" {
			return
		}
		if _, ok := rev[r[LOrder].I]; !ok {
			order = append(order, r[LOrder].I)
		}
		rev[r[LOrder].I] += r[LPrice].F * (1 - r[LDisc].F)
	})
	sort.SliceStable(order, func(i, j int) bool { return rev[order[i]] > rev[order[j]] })
	if len(order) > 10 {
		order = order[:10]
	}
	names := []string{"o", "revenue", "orderdate", "shippriority"}
	var elems []moa.Elem
	for _, oid := range order {
		o := s.Orders.Fetch(s.tr, int(oid))
		elems = append(elems, moa.Elem{ID: bat.OID(oid), V: tup(names,
			bat.O(bat.OID(oid)), bat.F(rev[oid]), o[ODate], o[OShipPrio])})
	}
	return setOf(elems)
}

func (s *run) q4() *moa.SetVal {
	lo, hi := date("1993-07-01"), date("1993-10-01")
	itemsByOrder := s.Lineitem.IndexOn(LOrder)
	counts := map[string]int64{}
	for _, oid := range s.Orders.IndexOn(ODate).LookupRange(s.tr, &lo, &hi, true, false) {
		o := s.Orders.Fetch(s.tr, int(oid))
		if o[ODate].I >= hi.I { // exclusive upper bound
			continue
		}
		has := false
		for _, lid := range itemsByOrder.Lookup(s.tr, bat.I(int64(oid))) {
			r := s.Lineitem.Fetch(s.tr, int(lid))
			if r[LCommit].I < r[LReceipt].I {
				has = true
				break
			}
		}
		if has {
			counts[o[OPriority].S]++
		}
	}
	names := []string{"orderpriority", "order_count"}
	var elems []moa.Elem
	i := 0
	for p, c := range counts {
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names, bat.S(p), bat.I(c))})
		i++
	}
	return setOf(elems)
}

func (s *run) q5() *moa.SetVal {
	lo, hi := date("1994-01-01"), date("1995-01-01")
	rev := map[string]float64{}
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		o := s.Orders.Fetch(s.tr, int(r[LOrder].I))
		if o[ODate].I < lo.I || o[ODate].I >= hi.I {
			return
		}
		c := s.Customer.Fetch(s.tr, int(o[OCust].I))
		cn := s.Nation.Fetch(s.tr, int(c[CNation].I))
		if s.regionName(cn) != "ASIA" {
			return
		}
		sup := s.Supplier.Fetch(s.tr, int(r[LSupp].I))
		if sup[SNation].I != c[CNation].I {
			return
		}
		rev[cn[NName].S] += r[LPrice].F * (1 - r[LDisc].F)
	})
	names := []string{"n_name", "revenue"}
	var elems []moa.Elem
	i := 0
	for n, v := range rev {
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names, bat.S(n), bat.F(v))})
		i++
	}
	return setOf(elems)
}

func (s *run) q6() *moa.SetVal {
	lo, hi := date("1994-01-01"), date("1995-01-01")
	sum := 0.0
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if r[LShip].I >= lo.I && r[LShip].I < hi.I &&
			r[LDisc].F >= 0.05 && r[LDisc].F <= 0.07 && r[LQty].I < 24 {
			sum += r[LPrice].F * r[LDisc].F
		}
	})
	return setOf([]moa.Elem{{ID: 0, V: bat.F(sum)}})
}

func (s *run) q7() *moa.SetVal {
	lo, hi := date("1995-01-01"), date("1996-12-31")
	type key struct {
		sn, cn string
		yr     int64
	}
	rev := map[key]float64{}
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if r[LShip].I < lo.I || r[LShip].I > hi.I {
			return
		}
		sup := s.Supplier.Fetch(s.tr, int(r[LSupp].I))
		sn := s.Nation.Fetch(s.tr, int(sup[SNation].I))[NName].S
		o := s.Orders.Fetch(s.tr, int(r[LOrder].I))
		c := s.Customer.Fetch(s.tr, int(o[OCust].I))
		cn := s.Nation.Fetch(s.tr, int(c[CNation].I))[NName].S
		if !(sn == "FRANCE" && cn == "GERMANY") && !(sn == "GERMANY" && cn == "FRANCE") {
			return
		}
		rev[key{sn, cn, yearOf(r[LShip].I)}] += r[LPrice].F * (1 - r[LDisc].F)
	})
	names := []string{"supp_nation", "cust_nation", "l_year", "revenue"}
	var elems []moa.Elem
	i := 0
	for k, v := range rev {
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names,
			bat.S(k.sn), bat.S(k.cn), bat.I(k.yr), bat.F(v))})
		i++
	}
	return setOf(elems)
}

func (s *run) q8() *moa.SetVal {
	lo, hi := date("1995-01-01"), date("1996-12-31")
	tot := map[int64]float64{}
	bra := map[int64]float64{}
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		p := s.Part.Fetch(s.tr, int(r[LPart].I))
		if p[PType].S != "ECONOMY ANODIZED STEEL" {
			return
		}
		o := s.Orders.Fetch(s.tr, int(r[LOrder].I))
		if o[ODate].I < lo.I || o[ODate].I > hi.I {
			return
		}
		c := s.Customer.Fetch(s.tr, int(o[OCust].I))
		cn := s.Nation.Fetch(s.tr, int(c[CNation].I))
		if s.regionName(cn) != "AMERICA" {
			return
		}
		yr := yearOf(o[ODate].I)
		v := r[LPrice].F * (1 - r[LDisc].F)
		tot[yr] += v
		sup := s.Supplier.Fetch(s.tr, int(r[LSupp].I))
		if s.Nation.Fetch(s.tr, int(sup[SNation].I))[NName].S == "BRAZIL" {
			bra[yr] += v
		}
	})
	names := []string{"o_year", "mkt_share"}
	var elems []moa.Elem
	i := 0
	for yr, t := range tot {
		share := 0.0
		if t != 0 {
			share = bra[yr] / t
		}
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names, bat.I(yr), bat.F(share))})
		i++
	}
	return setOf(elems)
}

func (s *run) q9() *moa.SetVal {
	type key struct {
		n  string
		yr int64
	}
	type psKey struct{ sup, part int64 }
	cost := map[psKey]float64{}
	s.PartSupp.Scan(s.tr, func(_ int, r []bat.Value) {
		cost[psKey{r[PSSupp].I, r[PSPart].I}] = r[PSCost].F
	})
	profit := map[key]float64{}
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		p := s.Part.Fetch(s.tr, int(r[LPart].I))
		if !contains(p[PName].S, "green") {
			return
		}
		c, ok := cost[psKey{r[LSupp].I, r[LPart].I}]
		if !ok {
			return
		}
		sup := s.Supplier.Fetch(s.tr, int(r[LSupp].I))
		n := s.Nation.Fetch(s.tr, int(sup[SNation].I))[NName].S
		o := s.Orders.Fetch(s.tr, int(r[LOrder].I))
		profit[key{n, yearOf(o[ODate].I)}] += r[LPrice].F*(1-r[LDisc].F) - c*float64(r[LQty].I)
	})
	names := []string{"nation", "o_year", "sum_profit"}
	var elems []moa.Elem
	i := 0
	for k, v := range profit {
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names,
			bat.S(k.n), bat.I(k.yr), bat.F(v))})
		i++
	}
	return setOf(elems)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func (s *run) q10() *moa.SetVal {
	lo, hi := date("1993-10-01"), date("1994-01-01")
	rev := map[int64]float64{}
	var order []int64
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if byte(r[LFlag].I) != 'R' {
			return
		}
		o := s.Orders.Fetch(s.tr, int(r[LOrder].I))
		if o[ODate].I < lo.I || o[ODate].I >= hi.I {
			return
		}
		cid := o[OCust].I
		if _, ok := rev[cid]; !ok {
			order = append(order, cid)
		}
		rev[cid] += r[LPrice].F * (1 - r[LDisc].F)
	})
	sort.SliceStable(order, func(i, j int) bool { return rev[order[i]] > rev[order[j]] })
	if len(order) > 20 {
		order = order[:20]
	}
	names := []string{"c", "revenue", "c_name", "c_acctbal", "n_name"}
	var elems []moa.Elem
	for _, cid := range order {
		c := s.Customer.Fetch(s.tr, int(cid))
		n := s.Nation.Fetch(s.tr, int(c[CNation].I))
		elems = append(elems, moa.Elem{ID: bat.OID(cid), V: tup(names,
			bat.O(bat.OID(cid)), bat.F(rev[cid]), c[CName], c[CAcct], n[NName])})
	}
	return setOf(elems)
}

func (s *run) q11() *moa.SetVal {
	value := map[int64]float64{}
	total := 0.0
	s.PartSupp.Scan(s.tr, func(_ int, r []bat.Value) {
		sup := s.Supplier.Fetch(s.tr, int(r[PSSupp].I))
		if s.Nation.Fetch(s.tr, int(sup[SNation].I))[NName].S != "GERMANY" {
			return
		}
		v := r[PSCost].F * float64(r[PSAvail].I)
		value[r[PSPart].I] += v
		total += v
	})
	threshold := 0.0001 * total
	names := []string{"p", "v"}
	var elems []moa.Elem
	for p, v := range value {
		if v > threshold {
			elems = append(elems, moa.Elem{ID: bat.OID(p), V: tup(names,
				bat.O(bat.OID(p)), bat.F(v))})
		}
	}
	return setOf(elems)
}

func (s *run) q12() *moa.SetVal {
	lo, hi := date("1994-01-01"), date("1995-01-01")
	high := map[string]int64{}
	low := map[string]int64{}
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		m := r[LMode].S
		if m != "MAIL" && m != "SHIP" {
			return
		}
		if !(r[LCommit].I < r[LReceipt].I && r[LShip].I < r[LCommit].I) {
			return
		}
		if r[LReceipt].I < lo.I || r[LReceipt].I >= hi.I {
			return
		}
		p := s.Orders.Fetch(s.tr, int(r[LOrder].I))[OPriority].S
		if p == "1-URGENT" || p == "2-HIGH" {
			high[m]++
			low[m] += 0
		} else {
			low[m]++
			high[m] += 0
		}
	})
	names := []string{"shipmode", "high_line_count", "low_line_count"}
	var elems []moa.Elem
	i := 0
	for m := range high {
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names,
			bat.S(m), bat.I(high[m]), bat.I(low[m]))})
		i++
	}
	return setOf(elems)
}

func (s *run) q13(clerk string) *moa.SetVal {
	itemsByOrder := s.Lineitem.IndexOn(LOrder)
	loss := map[int64]float64{}
	for _, oid := range s.Orders.IndexOn(OClerk).Lookup(s.tr, bat.S(clerk)) {
		o := s.Orders.Fetch(s.tr, int(oid))
		for _, lid := range itemsByOrder.Lookup(s.tr, bat.I(int64(oid))) {
			r := s.Lineitem.Fetch(s.tr, int(lid))
			if byte(r[LFlag].I) != 'R' {
				continue
			}
			loss[yearOf(o[ODate].I)] += r[LPrice].F * (1 - r[LDisc].F)
		}
	}
	names := []string{"year", "loss"}
	var elems []moa.Elem
	i := 0
	for yr, l := range loss {
		elems = append(elems, moa.Elem{ID: bat.OID(i), V: tup(names, bat.I(yr), bat.F(l))})
		i++
	}
	return setOf(elems)
}

func (s *run) q14() *moa.SetVal {
	lo, hi := date("1995-09-01"), date("1995-10-01")
	promo, total := 0.0, 0.0
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if r[LShip].I < lo.I || r[LShip].I >= hi.I {
			return
		}
		v := r[LPrice].F * (1 - r[LDisc].F)
		total += v
		ty := s.Part.Fetch(s.tr, int(r[LPart].I))[PType].S
		if len(ty) >= 5 && ty[:5] == "PROMO" {
			promo += v
		}
	})
	if total == 0 {
		return setOf([]moa.Elem{{ID: 0, V: bat.F(0)}})
	}
	return setOf([]moa.Elem{{ID: 0, V: bat.F(100 * promo / total)}})
}

func (s *run) q15() *moa.SetVal {
	lo, hi := date("1996-01-01"), date("1996-04-01")
	rev := map[int64]float64{}
	s.Lineitem.Scan(s.tr, func(_ int, r []bat.Value) {
		if r[LShip].I >= lo.I && r[LShip].I < hi.I {
			rev[r[LSupp].I] += r[LPrice].F * (1 - r[LDisc].F)
		}
	})
	max := 0.0
	for _, v := range rev {
		if v > max {
			max = v
		}
	}
	names := []string{"s", "total_revenue", "s_name"}
	var elems []moa.Elem
	for sid, v := range rev {
		if v >= max {
			sup := s.Supplier.Fetch(s.tr, int(sid))
			elems = append(elems, moa.Elem{ID: bat.OID(sid), V: tup(names,
				bat.O(bat.OID(sid)), bat.F(v), sup[SName])})
		}
	}
	return setOf(elems)
}
