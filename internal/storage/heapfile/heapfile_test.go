package heapfile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

func writeDir(t *testing.T, dir string) ([]int64, []uint32, string) {
	t.Helper()
	ints := []int64{-5, 0, 1 << 40, 42, -1}
	oids := []uint32{0, 1, 2, 3, 4, 5, 6}
	chars := "helloheapfile"
	w, err := NewWriter(dir, json.RawMessage(`{"kind":"test"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("col.tail", BytesOf(ints)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("idx.head", BytesOf(oids)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("col.chars", []byte(chars)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("empty.tail", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return ints, oids, chars
}

// TestRoundtripMappedAndFallback opens one directory twice, once mapped
// and once through the forced read path, and requires both to serve the
// written values and byte-identical spans.
func TestRoundtripMappedAndFallback(t *testing.T) {
	dir := t.TempDir()
	ints, oids, chars := writeDir(t, dir)
	mapped, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mapped.Close()
	for _, read := range []bool{false, true} {
		s, err := open(dir, read)
		if err != nil {
			t.Fatalf("open read=%v: %v", read, err)
		}
		for _, fi := range s.Manifest().Files {
			m := s.Mapping(fi.Name)
			if read && m.Mapped() {
				t.Fatalf("read=true mapped %s", fi.Name)
			}
			if !bytes.Equal(m.Bytes(), mapped.Mapping(fi.Name).Bytes()) {
				t.Fatalf("read=%v: %s bytes differ from the mapping", read, fi.Name)
			}
		}
		gotInts := View[int64](s.Mapping("col.tail"))
		for i, v := range ints {
			if gotInts[i] != v {
				t.Fatalf("read=%v int[%d]=%d want %d", read, i, gotInts[i], v)
			}
		}
		gotOids := View[uint32](s.Mapping("idx.head"))
		for i, v := range oids {
			if gotOids[i] != v {
				t.Fatalf("oid[%d]=%d want %d", i, gotOids[i], v)
			}
		}
		if got := ViewString(s.Mapping("col.chars")); got != chars {
			t.Fatalf("chars=%q want %q", got, chars)
		}
		if got := View[int64](s.Mapping("empty.tail")); len(got) != 0 {
			t.Fatalf("empty part has %d elems", len(got))
		}
		mb, rb, _ := s.Resident()
		if mb != int64(len(ints)*8+len(oids)*4+len(chars)) {
			t.Fatalf("mapped bytes %d", mb)
		}
		if rb < 0 || rb > mb {
			t.Fatalf("resident %d of %d", rb, mb)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// partFile returns the path of the file holding part name in dir and the
// part's manifest entry.
func partFile(t *testing.T, dir, name string) (string, FileInfo) {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := man.Lookup(name)
	if !ok || fi.File == "" {
		t.Fatalf("%s: no file holds part %s", dir, name)
	}
	return filepath.Join(dir, fi.File), fi
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	writeDir(t, dir)
	// Flip one byte of a column part: CRC verification must refuse it.
	path, fi := partFile(t, dir, "col.tail")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[fi.Off+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open accepted corrupt column file")
	}
	// Truncation is refused by the size check before anything is mapped
	// (mmap past EOF would SIGBUS).
	if err := os.Truncate(path, fi.Off+fi.Bytes-8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "manifest says") {
		t.Fatalf("open of a truncated column file: %v, want a size mismatch", err)
	}
}

func TestOpenRequiresManifest(t *testing.T) {
	dir := t.TempDir()
	if IsHeapDir(dir) {
		t.Fatal("empty dir reported as heap dir")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open accepted manifest-less dir")
	}
	writeDir(t, dir)
	if !IsHeapDir(dir) {
		t.Fatal("committed dir not recognized")
	}
}

func TestBorrowSharesBytes(t *testing.T) {
	a := t.TempDir()
	ints, _, _ := writeDir(t, a)
	man, err := ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(t.TempDir(), "next")
	w, err := NewWriter(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := man.Lookup("col.tail")
	if !ok {
		t.Fatal("col.tail missing from manifest")
	}
	if err := w.Borrow("col.tail", a, fi); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("fresh.tail", BytesOf([]int64{9})); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := View[int64](s.Mapping("col.tail"))
	for i, v := range ints {
		if got[i] != v {
			t.Fatalf("borrowed int[%d]=%d want %d", i, got[i], v)
		}
	}
	// On link-capable filesystems the inode is shared (page cache CoW).
	pa, _ := partFile(t, a, "col.tail")
	pb, _ := partFile(t, b, "col.tail")
	sa, err1 := os.Stat(pa)
	sb, err2 := os.Stat(pb)
	if err1 == nil && err2 == nil && !os.SameFile(sa, sb) {
		t.Log("borrow fell back to copy (no hard links on this fs)")
	}
}

// TestBorrowCopyFallback drives Borrow's copy path: a file already at the
// destination name makes the hard link fail with EEXIST, so the part is
// copied into the writer's own pack instead. The copy must verify on Open
// and leave no temp file behind.
func TestBorrowCopyFallback(t *testing.T) {
	a := t.TempDir()
	ints, _, _ := writeDir(t, a)
	man, err := ReadManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := man.Lookup("col.tail")
	b := t.TempDir()
	w, err := NewWriter(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(b, fi.File), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Borrow("col.tail", a, fi); err != nil {
		t.Fatalf("borrow: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	sa, err1 := os.Stat(filepath.Join(a, fi.File))
	sb, err2 := os.Stat(filepath.Join(b, fi.File))
	if err1 != nil || err2 != nil || os.SameFile(sa, sb) {
		t.Fatalf("borrow linked the source instead of copying (%v, %v)", err1, err2)
	}
	s, err := Open(b)
	if err != nil {
		t.Fatalf("open copied part: %v", err)
	}
	defer s.Close()
	got := View[int64](s.Mapping("col.tail"))
	if len(got) != len(ints) {
		t.Fatalf("copied part holds %d ints, want %d", len(got), len(ints))
	}
	for i, v := range ints {
		if got[i] != v {
			t.Fatalf("copied int[%d]=%d want %d", i, got[i], v)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(b, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

func TestResidencyRegistry(t *testing.T) {
	dir := t.TempDir()
	writeDir(t, dir)
	before := storage.SampleResidency()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	during := storage.SampleResidency()
	if during.MappedBytes <= before.MappedBytes {
		t.Fatalf("mapped bytes did not grow: before %d during %d", before.MappedBytes, during.MappedBytes)
	}
	s.Close()
	after := storage.SampleResidency()
	if after.MappedBytes != before.MappedBytes {
		t.Fatalf("close did not unregister: before %d after %d", before.MappedBytes, after.MappedBytes)
	}
}
