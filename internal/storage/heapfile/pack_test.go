package heapfile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dirFiles lists the regular files in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// partBytes sums the sizes of every part man lists.
func partBytes(man *Manifest) int64 {
	var n int64
	for _, fi := range man.Files {
		n += fi.Bytes
	}
	return n
}

// TestPartsPageAligned: every part a Writer puts starts on a page boundary
// of the pack, and no two parts overlap.
func TestPartsPageAligned(t *testing.T) {
	dir := t.TempDir()
	writeDir(t, dir)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := append([]FileInfo(nil), man.Files...)
	sort.Slice(files, func(i, j int) bool { return files[i].Off < files[j].Off })
	var end int64
	for _, fi := range files {
		if fi.Bytes == 0 {
			if fi.File != "" {
				t.Fatalf("empty part %s names file %q", fi.Name, fi.File)
			}
			continue
		}
		if fi.Off%int64(pageSize()) != 0 {
			t.Fatalf("part %s at offset %d, not a multiple of the %d-byte page", fi.Name, fi.Off, pageSize())
		}
		if fi.Off < end {
			t.Fatalf("part %s at %d overlaps the previous part ending at %d", fi.Name, fi.Off, end)
		}
		end = fi.Off + fi.Bytes
	}
}

// TestWriterCreatesOnePack: however many parts a Writer puts, its
// directory holds one pack plus the manifest; a Writer that puts no bytes
// creates no pack.
func TestWriterCreatesOnePack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap.d.tmp")
	w, err := NewWriter(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Put(strings.Repeat("p", i+1)+".tail", BytesOf([]int64{int64(i), 1, 2})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := dirFiles(t, dir), []string{manifestName, "snap.d.pack"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("directory holds %v, want %v", got, want)
	}

	empty := t.TempDir()
	w, err = NewWriter(empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("none.tail", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := dirFiles(t, empty); len(got) != 1 || got[0] != manifestName {
		t.Fatalf("a writer of no bytes left %v, want only the manifest", got)
	}
}

// TestBorrowLinksPackOnce: borrowing every part of a pack links that pack
// into the new directory once, and the bytes borrowed are counted as
// linked, those put as written.
func TestBorrowLinksPackOnce(t *testing.T) {
	a := t.TempDir()
	writeDir(t, a)
	man, err := ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(t.TempDir(), "next")
	w, err := NewWriter(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range man.Files {
		if err := w.Borrow(fi.Name, a, fi); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put("fresh.tail", BytesOf([]int64{9})); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName, "next.pack", filepath.Base(a) + packSuffix}
	sort.Strings(want)
	if got := dirFiles(t, b); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	if w.linked != partBytes(man) || w.written != 8 {
		t.Fatalf("linked %d written %d, want %d and 8", w.linked, w.written, partBytes(man))
	}
}

// TestCommittedBytesConservation: for every commit, the bytes written and
// linked add up to the manifest's part bytes, and the process counters
// move by exactly that much.
func TestCommittedBytesConservation(t *testing.T) {
	a := t.TempDir()
	w0, l0 := CommittedBytes()
	writeDir(t, a)
	manA, err := ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	w1, l1 := CommittedBytes()
	if w1-w0 != partBytes(manA) || l1 != l0 {
		t.Fatalf("first commit counted written %d linked %d, want %d and 0", w1-w0, l1-l0, partBytes(manA))
	}
	b := t.TempDir()
	w, err := NewWriter(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := manA.Lookup("col.tail")
	if err := w.Borrow("col.tail", a, fi); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("col.chars", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w2, l2 := CommittedBytes()
	if (w2-w1)+(l2-l1) != partBytes(w.Manifest()) || l2-l1 != fi.Bytes {
		t.Fatalf("second commit counted written %d linked %d, manifest %d, borrowed %d", w2-w1, l2-l1, partBytes(w.Manifest()), fi.Bytes)
	}
}

// TestOpenMapsEachFileOnce: a directory whose parts live in two packs maps
// two files, and every part is a range of one of them.
func TestOpenMapsEachFileOnce(t *testing.T) {
	a := t.TempDir()
	writeDir(t, a)
	man, err := ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	b := t.TempDir()
	w, err := NewWriter(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"col.tail", "idx.head"} {
		fi, _ := man.Lookup(name)
		if err := w.Borrow(name, a, fi); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"x.tail", "y.tail", "z.tail"} {
		if err := w.Put(name, BytesOf([]int64{1, 2, 3})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, read := range []bool{false, true} {
		s, err := open(b, read)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.files) != 2 || len(s.maps) != 5 {
			t.Fatalf("read=%v: %d files mapped for %d parts, want 2 for 5", read, len(s.files), len(s.maps))
		}
		s.Close()
	}
}

// TestOpenRefusesPartPastEnd: a manifest placing a part beyond its file's
// end fails the open before anything is read.
func TestOpenRefusesPartPastEnd(t *testing.T) {
	dir := t.TempDir()
	writeDir(t, dir)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Files {
		if man.Files[i].Name == "col.tail" {
			man.Files[i].Off += 64 * int64(pageSize())
		}
	}
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "manifest says") {
		t.Fatalf("open of a part past its file's end: %v, want a refusal", err)
	}
}

// TestClosePartKeepsSiblings: closing one part retires it alone; the
// parts beside it in the same pack stay readable until the store closes.
func TestClosePartKeepsSiblings(t *testing.T) {
	dir := t.TempDir()
	ints, oids, chars := writeDir(t, dir)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Mapping("col.tail").Close(); err != nil {
		t.Fatal(err)
	}
	if s.Mapping("col.tail").Bytes() != nil {
		t.Fatal("a closed part still exposes bytes")
	}
	got := View[uint32](s.Mapping("idx.head"))
	for i, v := range oids {
		if got[i] != v {
			t.Fatalf("sibling oid[%d]=%d want %d after closing col.tail", i, got[i], v)
		}
	}
	if got := ViewString(s.Mapping("col.chars")); got != chars {
		t.Fatalf("sibling chars=%q want %q", got, chars)
	}
	if mb, _, _ := s.Resident(); mb != int64(len(oids)*4+len(chars)) {
		t.Fatalf("mapped bytes %d after closing the %d-byte part", mb, len(ints)*8)
	}
}

// TestPerPartLayoutOpensAndLends: a directory in the earlier layout — one
// file per part, no "off" in the manifest — opens, and lends its parts to
// a pack checkpoint, linking each part's file once.
func TestPerPartLayoutOpensAndLends(t *testing.T) {
	old := t.TempDir()
	ints := []int64{-5, 0, 1 << 40}
	chars := "perpart"
	parts := map[string][]byte{"col.tail": BytesOf(ints), "col.chars": []byte(chars), "empty.tail": nil}
	var files []map[string]any
	for _, name := range []string{"col.chars", "col.tail", "empty.tail"} {
		if err := os.WriteFile(filepath.Join(old, name+".heap"), parts[name], 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, map[string]any{"name": name, "file": name + ".heap", "bytes": len(parts[name]), "crc": crc32Of(parts[name])})
	}
	man, err := json.Marshal(map[string]any{"magic": ManifestMagic, "byteOrder": hostByteOrder(), "files": files})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		got := View[int64](s.Mapping("col.tail"))
		for i, v := range ints {
			if got[i] != v {
				t.Fatalf("int[%d]=%d want %d", i, got[i], v)
			}
		}
		if got := ViewString(s.Mapping("col.chars")); got != chars {
			t.Fatalf("chars=%q want %q", got, chars)
		}
	}
	s, err := Open(old)
	if err != nil {
		t.Fatalf("open per-part directory: %v", err)
	}
	check(s)
	s.Close()

	next := filepath.Join(t.TempDir(), "next")
	w, err := NewWriter(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldMan, err := ReadManifest(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range oldMan.Files {
		if err := w.Borrow(fi.Name, old, fi); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Put("fresh.tail", BytesOf([]int64{7})); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName, "col.chars.heap", "col.tail.heap", "next.pack"}
	if got := dirFiles(t, next); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("pack checkpoint over a per-part directory holds %v, want %v", got, want)
	}
	s, err = Open(next)
	if err != nil {
		t.Fatalf("open pack checkpoint: %v", err)
	}
	defer s.Close()
	check(s)
	if got := View[int64](s.Mapping("fresh.tail")); len(got) != 1 || got[0] != 7 {
		t.Fatalf("fresh part %v", got)
	}
}
