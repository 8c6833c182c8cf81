//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package heapfile

import "errors"

// Portable fallback: no mmap. openMapping degrades to reading the file into
// aligned anonymous memory, and residency reports the anonymous copy as
// fully resident.

func mmapFile(path string, size int64) ([]byte, error) {
	return nil, errors.New("heapfile: mmap unsupported on this platform")
}

func munmapFile(b []byte) error { return nil }
