package store

import (
	"errors"
	"os"
)

// segmentFile is how the outbox writes its active segment: grow, then write
// at offsets below the capacity grown to, then close. An interface only so
// that a test can fail a growth.
type segmentFile interface {
	// grow makes the file's first need bytes writable.
	grow(need int64) error
	// write puts b at offset off, below the capacity last grown to. When it
	// returns nil a second reader of the file sees b, and b survives the
	// death of the process.
	write(off int64, b []byte) error
	// close releases the file, cutting it to its first end bytes: the log,
	// without the zero tail that growing reserved.
	close(end int64) error
}

// activeFile is the active segment's file. Past the log, which ends where
// the outbox's segment bookkeeping says, the file holds zeros up to its
// capacity: growing reserves real blocks, so that a write into them cannot
// fail for want of disk. Where the platform has shared mappings (unix) the
// capacity is mapped and a write is a copy into the page cache
// (segfile_unix.go); elsewhere a write is one WriteAt (segfile_other.go).
type activeFile struct {
	f    *os.File
	size int64  // the file's length: the log, then the zeros reserved after it
	cap  int64  // what write may reach; 0 until the first write
	mem  []byte // the shared mapping of the first cap bytes; nil off unix
}

// openActive opens the active segment at path for writing. Nothing is
// written or mapped until the first write; size is the file's length.
func openActive(path string, flag int, size int64) (*activeFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &activeFile{f: f, size: size}, nil
}

// pageSize is the first capacity of a segment: one page of the mapping.
const pageSize = 4096

// zeroBlock is what growing writes the reserved tail from: never written
// to, so it costs no memory.
var zeroBlock [64 << 10]byte

// capacityFor returns the capacity to grow to from cur so that need bytes
// fit: one page at first, doubling up to segmentSize, then exactly need —
// past segmentSize the segment is sealed after the write that got it there,
// so more would only be cut off again.
func capacityFor(cur, need int64) int64 {
	c := max(cur, pageSize)
	for c < need && 2*c <= segmentSize {
		c *= 2
	}
	return max(c, need)
}

func (a *activeFile) grow(need int64) error {
	if need <= a.cap {
		return nil
	}
	c := capacityFor(a.cap, need)
	for a.size < c {
		n, err := a.f.WriteAt(zeroBlock[:min(c-a.size, int64(len(zeroBlock)))], a.size)
		a.size += int64(n)
		if err != nil {
			return err
		}
	}
	mem, err := mapFile(a.f, c)
	if err != nil {
		return err
	}
	// Unmapping fails only for a range that is not a mapping.
	_ = unmapFile(a.mem)
	a.mem, a.cap = mem, c
	return nil
}

func (a *activeFile) close(end int64) error {
	err := unmapFile(a.mem)
	a.mem, a.cap = nil, 0
	if a.size != end {
		err = errors.Join(err, a.f.Truncate(end))
	}
	return errors.Join(err, a.f.Close())
}
