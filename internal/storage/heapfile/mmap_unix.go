//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package heapfile

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of the file read-only and shared — the paper's
// storage model verbatim: the MMU pages the column in on demand and the
// page cache is the buffer pool.
func mmapFile(path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }
