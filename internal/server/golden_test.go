package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/tpcd"
)

// responseGoldenPath holds the /query response bodies of the fifteen
// Figure-9 queries and the five lookup templates at SF 0.002 (seed 7), as
// served by Handler() with a fixed X-Request-Id, elapsed_us masked. To
// re-pin after a deliberate change, delete the file and run the test once:
// it writes the file and fails, and the diff is the review.
const responseGoldenPath = "testdata/responses.golden"

var elapsedField = regexp.MustCompile(`,"elapsed_us":[0-9]+,`)

// TestResponseBytesGolden pins the served answer byte for byte: element
// rendering, JSON escaping, field order and the counters beside them.
func TestResponseBytesGolden(t *testing.T) {
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	h := New(engine.New(tpcd.Schema(), env), Config{}).Handler()
	c, s, r := gen.Customers[7], gen.Suppliers[7], gen.Regions[2]
	type query struct{ name, src string }
	var qs []query
	for _, q := range tpcd.Queries(gen) {
		qs = append(qs, query{fmt.Sprintf("Q%02d", q.Num), q.MOA})
	}
	qs = append(qs,
		query{"cust-nation", fmt.Sprintf(`project[<name : name, nation.name : nation, acctbal : acctbal>](select[=(name, %q)](Customer))`, c.Name)},
		query{"cust-orders", fmt.Sprintf(`project[<name : name, project[<totalprice : totalprice, orderdate : orderdate>](orders) : orders>](select[=(name, %q)](Customer))`, c.Name)},
		query{"supp-lowstock", fmt.Sprintf(`project[<name : name, select[<(available, 1000)](supplies) : low>](select[=(name, %q)](Supplier))`, s.Name)},
		query{"region", fmt.Sprintf(`project[<name : name, comment : comment>](select[=(name, %q)](Region))`, r.Name)},
		query{"clerk-returns", fmt.Sprintf(`select[=(order.clerk, %q), =(returnflag, 'R')](Item)`, gen.Clerk())},
	)
	var got bytes.Buffer
	for _, q := range qs {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q.src))
		req.Header.Set("X-Request-Id", "golden-"+q.name)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.name, rec.Code, rec.Body)
		}
		body := rec.Body.Bytes()
		if n := len(elapsedField.FindAllIndex(body, -1)); n != 1 {
			t.Fatalf("%s: %d elapsed_us fields in %s", q.name, n, body)
		}
		fmt.Fprintf(&got, "== %s\n", q.name)
		got.Write(elapsedField.ReplaceAll(body, []byte(`,"elapsed_us":0,`)))
	}

	want, err := os.ReadFile(responseGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(responseGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(responseGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d bytes); rerun to compare", responseGoldenPath, got.Len())
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("response bytes moved at line %d:\ngot  %.400s\nwant %.400s", i+1, g, w)
		}
	}
}

// TestAppendJSONStringIsEncodingJSON: the response writer's string escaping
// equals encoding/json's (HTML escaping on) for every byte, the two line
// separators, invalid and truncated UTF-8, and random mixes of them.
func TestAppendJSONStringIsEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", "<a href=\"x\">&amp;</a>", "\u2028\u2029", "\xff\xfe", "é\xe2\x82", "ü\x80"}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string(rune(b))+"y")
	}
	rng := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "\"", "\\", "<", ">", "&", "\n", "\x01", "\x7f", "é", "\u2028", "\xc3", "\xff", string(utf8.RuneError), "𝄞"}
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		cases = append(cases, sb.String())
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, []byte(c)); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", c, got, want)
		}
	}
}

// TestResultPathAllocations bounds what serving an answer allocates: a
// clerk-returns query of 1,600-odd Items of 14 fields each, rendered and
// encoded, allocates a constant number of times per query — the difference
// between ?noresult=0 and ?noresult=1 is the rendering, and turning it off
// never allocates more — the whole request allocates fewer times than it
// returns elements, and its query string is parsed once: a parameter costs
// the rendered request at most one parse over bare /query.
func TestResultPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	gen := tpcd.Generate(0.002, 7)
	env, _ := tpcd.Load(gen)
	h := New(engine.New(tpcd.Schema(), env), Config{}).Handler()
	src := fmt.Sprintf(`select[=(order.clerk, %q), =(returnflag, 'R')](Item)`, gen.Clerk())
	var rec *httptest.ResponseRecorder
	serve := func(path string) func() {
		return func() {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(src)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
		}
	}
	serve("/query")() // plan cache, accelerators and the pooled buffer warm up
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count < 1000 || len(qr.Elems) != qr.Count {
		t.Fatalf("%d elements (%d rendered), want over 1000", qr.Count, len(qr.Elems))
	}
	plain := testing.AllocsPerRun(20, serve("/query"))
	full := testing.AllocsPerRun(20, serve("/query?noresult=0"))
	bare := testing.AllocsPerRun(20, serve("/query?noresult=1"))
	if bare > full {
		t.Errorf("?noresult=1 allocated %.0f times per query, more than the %.0f of ?noresult=0", bare, full)
	}
	if parse := full - plain; parse > 3 {
		t.Errorf("?noresult=0 allocated %.0f times more than /query, want one parse of the query string", parse)
	}
	if render := full - bare; render > 64 {
		t.Errorf("rendering %d elements allocated %.0f times per query, want O(1)", qr.Count, render)
	}
	if full >= float64(qr.Count) {
		t.Errorf("serving %d elements allocated %.0f times per query", qr.Count, full)
	}
	t.Logf("%d elements: %.0f allocations served (%.0f under ?noresult=0), %.0f under ?noresult=1", qr.Count, plain, full, bare)
}
