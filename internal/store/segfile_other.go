//go:build !unix

package store

import "os"

// Without shared mappings the capacity is only reserved, never mapped, and
// every write goes to the file itself.

func mapFile(*os.File, int64) ([]byte, error) { return nil, nil }

func unmapFile([]byte) error { return nil }

func (a *activeFile) write(off int64, b []byte) error {
	_, err := a.f.WriteAt(b, off)
	return err
}
