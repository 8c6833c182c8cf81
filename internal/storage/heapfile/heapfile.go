// Package heapfile is the real, out-of-core storage layer of the
// reproduction: each persistent column's BUN heap is a page-aligned range
// of a file on disk, mapped read-only into the address space, exactly as
// Monet stores BATs (Boncz, Wilschut & Kersten, ICDE 1998, §5.2 — "BATs
// live in memory mapped files paged in by the MMU"). Fixed-width columns
// reinterpret the mapping as a typed slice (View); string heaps map as a
// byte heap with the offset-anchored views of internal/bat on top.
//
// A heap directory holds one pack file with every column part its writer
// wrote, each at a page-aligned offset, hard links to the packs of earlier
// directories it borrows unchanged parts from, and a JSON manifest written
// last (temp+rename) that names each part's file, offset, size and CRC-32C
// checksum. The manifest's presence is the commit point, so a torn write
// leaves either the previous complete directory or temp droppings that
// open ignores. Parts are raw host-endian array bytes with no header: the
// mapping base and every part offset are page-aligned, so a typed view is
// always correctly aligned. The manifest records the byte order and
// refuses a mismatch.
//
// Platform split: on unix each file is mmap'd once (mmap_unix.go) and a
// part's residency sampling forwards to mincore over its own range; the OS
// pages the mapping on demand under its default advice. A file is read into
// aligned anonymous memory instead (readAligned) only where the build has
// no mmap (mmap_portable.go) or mapping that file fails. Either way the
// bytes exposed to the column layer are identical: the package tests force
// the read path through an unexported seam and compare it with the mapping
// byte for byte.
package heapfile

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"
)

// castagnoli is the CRC-32C table used for all heap-file checksums (same
// polynomial as the WAL records of internal/epoch).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Mapping is a read-only byte span: a whole file (an mmap on unix, an
// anonymous aligned copy under the portable fallback), or one column
// part's range of such a file.
type Mapping struct {
	data   []byte
	mapped bool // the span is (part of) a file mapping, not anonymous memory
	part   bool // a range of its store's file mapping: Close leaves the file mapped
	closed atomic.Bool
}

// openMapping maps the whole file at path; read forces the portable
// read-into-memory path (a test seam). Any mmap failure (unsupported
// filesystem, no platform support) degrades to the portable read: the
// bytes served are identical either way. The size is taken from the file
// itself, so a part the manifest places past its end is refused before
// anything touches it (mapping past EOF would SIGBUS at first access).
func openMapping(path string, read bool) (*Mapping, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if !read {
		if data, err := mmapFile(path, size); err == nil {
			return &Mapping{data: data, mapped: true}, nil
		}
	}
	data, err := readAligned(path, size)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

// Bytes exposes the mapped span. The bytes are read-only: the file is
// mapped PROT_READ and a write through a typed view would SIGSEGV (the
// column layer never writes persistent heaps — updates go through the
// epoch chain's copy-on-write publication).
func (m *Mapping) Bytes() []byte { return m.data }

// Mapped reports whether the span is a real file mapping (false under the
// portable fallback, where it is an anonymous copy).
func (m *Mapping) Mapped() bool { return m.mapped }

// Resident samples how many bytes of the mapping the OS currently holds in
// RAM (mincore). probed=false when sampling is unsupported; fallback
// memory reports itself fully resident without probing (it is ordinary
// heap memory).
func (m *Mapping) Resident() (mappedBytes, residentBytes int64, probed bool) {
	if m == nil || m.closed.Load() {
		return 0, 0, false
	}
	size := int64(len(m.data))
	if !m.mapped {
		return size, size, false
	}
	res, ok := mincoreSpan(m.data)
	return size, res, ok
}

// Close releases the mapping. Typed views over it must not be used
// afterwards; the Store keeps every mapping alive until its own Close, and
// the epoch chain keeps stores alive while any pinned epoch references
// their columns. Closing a part only retires it: the file stays mapped for
// its sibling parts until Store.Close.
func (m *Mapping) Close() error {
	if m == nil || !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	if m.mapped && !m.part {
		data := m.data
		m.data = nil
		return munmapFile(data)
	}
	m.data = nil
	return nil
}

// pageSize caches the VM page size.
var pageSizeOnce atomic.Int64

func pageSize() int {
	if v := pageSizeOnce.Load(); v != 0 {
		return int(v)
	}
	v := os.Getpagesize()
	pageSizeOnce.Store(int64(v))
	return v
}

// readAligned reads the file into 8-byte-aligned anonymous memory (the
// portable twin of mmap). A plain make([]byte) does not guarantee the
// alignment the typed views need, so the buffer is carved from []uint64.
func readAligned(path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	words := make([]uint64, (size+7)/8)
	var buf []byte
	if len(words) > 0 {
		buf = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:size]
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("heapfile: read %s: %w", filepath.Base(path), err)
	}
	return buf, nil
}

// View reinterprets the mapping's bytes as a []T without copying. T must
// be a fixed-width scalar whose in-file layout is the host representation
// (the manifest's byte-order tag guards cross-host moves). The mapping
// base is page-aligned and every part starts its array at a page-aligned
// offset, so alignment always holds; View panics if the byte length is not a
// whole number of elements (a corrupt file that CRC verification should
// already have rejected).
func View[T any](m *Mapping) []T {
	b := m.Bytes()
	var zero T
	w := int(unsafe.Sizeof(zero))
	if len(b) == 0 {
		return nil
	}
	if len(b)%w != 0 {
		panic(fmt.Sprintf("heapfile: %d-byte span is not a whole number of %d-byte elements", len(b), w))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/w)
}

// ViewString reinterprets the mapping as a string (the char heap behind
// StrCol). Zero-copy: the string aliases the read-only mapping, which is
// safe precisely because the mapping is immutable for its lifetime.
func ViewString(m *Mapping) string {
	b := m.Bytes()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// BytesOf returns the raw byte representation of a typed slice, for
// writing a column part. The inverse of View.
func BytesOf[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	var zero T
	w := int(unsafe.Sizeof(zero))
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*w)
}

// hostByteOrder reports "little" or "big" for the manifest tag.
func hostByteOrder() string {
	x := uint16(1)
	if *(*byte)(unsafe.Pointer(&x)) == 1 {
		return "little"
	}
	return "big"
}
