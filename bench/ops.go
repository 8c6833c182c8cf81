package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tpcd"
)

// op is one request of a workload: a MOA query for /query or a refresh
// directive for /ingest, with what the answer must be.
type op struct {
	ingest bool
	dir    directive // the body of an ingest, unencoded
	body   string
	class  string // query class, for the report only
	// want checks an answer the run has not seen yet against the oracle
	// (the generator object graph); nil when the oracle cannot know it.
	want func(a answer) error
	// stable says the answer cannot change while the workload runs, so every
	// repetition must be byte-identical to the first, checked one.
	stable bool
	// A Figure-9 query names its number and, while the reference evaluator
	// can follow it, the object graph: the traced replay holds the result as
	// a value and compares it with tpcd.CompareResults.
	num     int
	ordered bool
	graph   *tpcd.DB
}

// answer is the part of a /query reply that identifies its result.
type answer struct {
	Count int      `json:"count"`
	Elems []string `json:"elems"`
}

// fig9Ops returns the 15 Figure-9 queries verbatim, each checked against the
// reference evaluator over gen and expected to keep its answer.
func fig9Ops(gen *tpcd.DB) ([]op, error) {
	var ops []op
	for _, q := range tpcd.Queries(gen) {
		want, err := renderReference(gen, q.Num)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{body: q.MOA, class: fmt.Sprintf("Q%02d", q.Num), stable: true,
			num: q.Num, ordered: q.Ordered, graph: gen,
			want: func(a answer) error { return sameElems(a.Elems, want, q.Ordered) }})
	}
	return ops, nil
}

// unfollowed is fig9Ops for a database that takes batches meanwhile: the
// oracle does not follow it, and only the queries that read neither Order nor
// Item (Q02, Q11) keep their answer.
func unfollowed(ops []op) []op {
	out := append([]op(nil), ops...)
	for i := range out {
		out[i].want, out[i].graph = nil, nil
		out[i].stable = out[i].num == 2 || out[i].num == 11
	}
	return out
}

// shuffled returns ops in a seeded order: -seed decides in which order a
// client walks the query list, the list itself is fixed.
func shuffled(ops []op, rng *rand.Rand) []op {
	out := append([]op(nil), ops...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// lookups generates the ad-hoc lookup stream: five templates in strict
// rotation (equal shares), each literal drawn from rng, each answer known
// from the object graph.
type lookups struct {
	gen     *tpcd.DB
	rng     *rand.Rand
	n       int
	clerks  []string
	returns map[string]int // clerk -> number of its returned items
}

func newLookups(gen *tpcd.DB, rng *rand.Rand) *lookups {
	l := &lookups{gen: gen, rng: rng, returns: map[string]int{}}
	for _, it := range gen.Items {
		if it.Returnflag == 'R' {
			l.returns[gen.Orders[it.Order].Clerk]++
		}
	}
	for c := range l.returns {
		l.clerks = append(l.clerks, c)
	}
	// Map order is random; the stream must depend on the seed alone.
	sort.Strings(l.clerks)
	return l
}

func (l *lookups) next() op {
	g := l.gen
	l.n++
	switch l.n % 5 {
	case 1:
		c := g.Customers[l.rng.Intn(len(g.Customers))]
		want := fmt.Sprintf("<name: %q, nation: %q, acctbal: %.4f>", c.Name, g.Nations[c.Nation].Name, c.Acctbal)
		return op{class: "cust-nation", stable: true, want: wantElems(want),
			body: fmt.Sprintf(`project[<name : name, nation.name : nation, acctbal : acctbal>](select[=(name, %q)](Customer))`, c.Name)}
	case 2:
		c := g.Customers[l.rng.Intn(len(g.Customers))]
		return op{class: "cust-orders", stable: true, want: wantNested("totalprice:", len(c.Orders)),
			body: fmt.Sprintf(`project[<name : name, project[<totalprice : totalprice, orderdate : orderdate>](orders) : orders>](select[=(name, %q)](Customer))`, c.Name)}
	case 3:
		s := g.Suppliers[l.rng.Intn(len(g.Suppliers))]
		low := 0
		for _, sp := range g.Supplies[s.SuppliesLo:s.SuppliesHi] {
			if sp.Available < 1000 {
				low++
			}
		}
		return op{class: "supp-lowstock", stable: true, want: wantNested("available:", low),
			body: fmt.Sprintf(`project[<name : name, select[<(available, 1000)](supplies) : low>](select[=(name, %q)](Supplier))`, s.Name)}
	case 4:
		r := g.Regions[l.rng.Intn(len(g.Regions))]
		want := fmt.Sprintf("<name: %q, comment: %q>", r.Name, r.Comment)
		return op{class: "region", stable: true, want: wantElems(want),
			body: fmt.Sprintf(`project[<name : name, comment : comment>](select[=(name, %q)](Region))`, r.Name)}
	default:
		clerk := l.clerks[l.rng.Intn(len(l.clerks))]
		n := l.returns[clerk]
		return op{class: "clerk-returns", stable: true,
			want: func(a answer) error {
				if a.Count != n || len(a.Elems) != n {
					return fmt.Errorf("count %d (%d rendered), object graph has %d", a.Count, len(a.Elems), n)
				}
				return nil
			},
			body: fmt.Sprintf(`select[=(order.clerk, %q), =(returnflag, 'R')](Item)`, clerk)}
	}
}

func wantElems(want ...string) func(answer) error {
	return func(a answer) error {
		if a.Count != len(want) || len(a.Elems) != len(want) {
			return fmt.Errorf("count %d, want %d", a.Count, len(want))
		}
		for i := range want {
			if a.Elems[i] != want[i] {
				return fmt.Errorf("element %d is %s, want %s", i, a.Elems[i], want[i])
			}
		}
		return nil
	}
}

// wantNested checks a one-object answer whose nested set has n members, each
// rendering the field marker once.
func wantNested(marker string, n int) func(answer) error {
	return func(a answer) error {
		if a.Count != 1 || len(a.Elems) != 1 {
			return fmt.Errorf("count %d, want 1", a.Count)
		}
		if got := strings.Count(a.Elems[0], marker); got != n {
			return fmt.Errorf("nested set has %d members, object graph has %d", got, n)
		}
		return nil
	}
}

// directive is the compact /ingest body moaserve expands server-side.
type directive struct {
	Generate int   `json:"generate"`
	Seed     int64 `json:"seed"`
}

// refreshSeed derives the k-th refresh-batch seed of a run from -seed.
func refreshSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

func ingestOp(d directive) op {
	b, _ := json.Marshal(d) // two integers: cannot fail
	return op{ingest: true, dir: d, body: string(b), class: "ingest"}
}

// digestOps are the queries whose answers must survive kill -9 + restart
// byte for byte; on the final state they are also checked against mirror,
// the object graph with every acknowledged batch applied.
func digestOps(mirror *tpcd.DB) ([]op, error) {
	fig9, err := fig9Ops(mirror)
	if err != nil {
		return nil, err
	}
	return []op{
		{class: "count(Order)", body: `count(Order)`, stable: true, want: wantElems(strconv.Itoa(len(mirror.Orders)))},
		{class: "count(Item)", body: `count(Item)`, stable: true, want: wantElems(strconv.Itoa(len(mirror.Items)))},
		{class: "sum(totalprice)", body: `sum(project[totalprice](Order))`, stable: true},
		fig9[0], fig9[2], fig9[5], // Q01, Q03, Q06 read the ingested Order and Item columns
	}, nil
}

// mirrorDB returns the object graph after the given directives, in order.
// Batches only append, so one concatenated batch reaches the same state as
// the server's one-by-one ingests at the price of a single apply.
func mirrorDB(sf float64, dirs []directive) (*tpcd.DB, error) {
	st, db, err := tpcd.OpenStore(tpcd.DurableConfig{SF: sf, Seed: dbSeed})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if len(dirs) == 0 {
		return db, nil
	}
	all := &tpcd.RefreshBatch{}
	for _, d := range dirs {
		all.Orders = append(all.Orders, tpcd.GenRefresh(db, d.Seed, d.Generate).Orders...)
	}
	payload, err := tpcd.EncodeRefresh(all)
	if err != nil {
		return nil, err
	}
	if _, err := st.Ingest(payload); err != nil {
		return nil, err
	}
	return db, nil
}

// verifier holds the checked answers of one run. It is shared by the
// clients of a workload.
type verifier struct {
	mu   sync.Mutex
	seen map[string]uint64 // query text -> hash of its last checked answer
}

func newVerifier() *verifier { return &verifier{seen: map[string]uint64{}} }

// forget drops every remembered answer; the durable workloads call it when
// the database has moved on.
func (v *verifier) forget() {
	v.mu.Lock()
	v.seen = map[string]uint64{}
	v.mu.Unlock()
}

// check accepts an answer that is byte-identical to the remembered one, and
// otherwise sends it to the oracle — unless the query is stable, for which a
// second, different answer is wrong whatever the oracle says.
func (v *verifier) check(o op, a answer) error {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", a.Count)
	for _, e := range a.Elems {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	sum := h.Sum64()
	v.mu.Lock()
	prev, ok := v.seen[o.body]
	v.mu.Unlock()
	if ok && prev == sum {
		return nil
	}
	if ok && o.stable {
		return fmt.Errorf("%s: answer differs from its checked first answer", o.class)
	}
	if a.Count != len(a.Elems) {
		return fmt.Errorf("%s: count %d but %d rendered elements", o.class, a.Count, len(a.Elems))
	}
	if o.want != nil {
		if err := o.want(a); err != nil {
			return fmt.Errorf("%s: %w", o.class, err)
		}
	}
	v.mu.Lock()
	v.seen[o.body] = sum
	v.mu.Unlock()
	return nil
}

// sameElems compares rendered result elements with the reference rendering:
// position by position for ordered results, as multisets otherwise. Floats
// may differ by summation order (and by the renderer's four decimals), so
// numbers are compared with tolerance and everything else exactly.
func sameElems(got, want []string, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("cardinality: got %d elements, reference has %d", len(got), len(want))
	}
	used := make([]bool, len(want))
	for i, g := range got {
		if ordered {
			if !sameRendered(g, want[i]) {
				return fmt.Errorf("position %d is %s, reference has %s", i, g, want[i])
			}
			continue
		}
		found := false
		for j, w := range want {
			if !used[j] && sameRendered(g, w) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return fmt.Errorf("element %d (%s) has no match in the reference", i, g)
		}
	}
	return nil
}

// sameRendered compares two moa.RenderVal strings token by token.
func sameRendered(a, b string) bool {
	if a == b {
		return true
	}
	ta, tb := tokens(a), tokens(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		x, errX := strconv.ParseFloat(ta[i], 64)
		y, errY := strconv.ParseFloat(tb[i], 64)
		if errX != nil || errY != nil {
			return false
		}
		d, scale := abs(x-y), max(abs(x), abs(y))
		// tpcd.CompareResults' relative tolerance plus one unit of the
		// renderer's last printed decimal.
		if d > 1e-6*scale+1.01e-4 {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// tokens splits a rendered value at structure characters, keeping quoted
// strings whole.
func tokens(s string) []string {
	var out []string
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == ' ' || c == ',':
			i++
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(s))
			out = append(out, s[i:j])
			i = j
		case strings.IndexByte("<>{}:", c) >= 0:
			out = append(out, s[i:i+1])
			i++
		default:
			j := i
			for j < len(s) && strings.IndexByte(" ,<>{}:\"", s[j]) < 0 {
				j++
			}
			out = append(out, s[i:j])
			i = j
		}
	}
	return out
}
