//go:build unix

package store

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// mapFile maps the first n bytes of f shared and writable: a store into the
// mapping dirties a page of the file's page cache, which a second reader
// sees at once and which the kernel writes back after the process is gone.
func mapFile(f *os.File, n int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func unmapFile(mem []byte) error {
	if mem == nil {
		return nil
	}
	return syscall.Munmap(mem)
}

// write copies b into the mapping. A page the file no longer backs — it was
// truncated behind the outbox — faults with SIGBUS; the copy runs with
// faults turned into panics, so that it is this call's error instead of the
// end of the process.
func (a *activeFile) write(off int64, b []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("store: %s: log page not backed by the file (fault at %#x)", a.f.Name(), fault.Addr())
		}
	}()
	copy(a.mem[off:], b)
	return nil
}
