package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
)

// KV is the small persistent key/value surface behind the scripts'
// freeze/thaw API (§4.4) and other per-node durable state. Implementations
// must survive whatever "reboot" means for their medium.
type KV interface {
	Put(key string, value []byte) error
	Get(key string) ([]byte, bool)
	Delete(key string) error
}

// MemKV is a volatile KV for tests and for simulated reboots where the
// harness deliberately keeps the same MemKV across node restarts.
type MemKV struct {
	mu sync.Mutex
	m  map[string][]byte
}

var _ KV = (*MemKV)(nil)

// NewMemKV returns an empty in-memory KV.
func NewMemKV() *MemKV { return &MemKV{m: make(map[string][]byte)} }

// Put implements KV.
func (k *MemKV) Put(key string, value []byte) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.m[key] = append([]byte(nil), value...)
	return nil
}

// Get implements KV.
func (k *MemKV) Get(key string) ([]byte, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete implements KV.
func (k *MemKV) Delete(key string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.m, key)
	return nil
}

// DirKV persists each key as a file in a directory; keys are hex-encoded so
// any string is a safe file name.
type DirKV struct {
	dir string
}

var _ KV = (*DirKV)(nil)

// NewDirKV creates (if needed) and opens a directory-backed KV.
func NewDirKV(dir string) (*DirKV, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirKV{dir: dir}, nil
}

func (k *DirKV) path(key string) string {
	return filepath.Join(k.dir, hex.EncodeToString([]byte(key))+".kv")
}

// Put implements KV with an atomic rename.
func (k *DirKV) Put(key string, value []byte) error {
	tmp := k.path(key) + ".tmp"
	if err := os.WriteFile(tmp, value, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, k.path(key))
}

// Get implements KV.
func (k *DirKV) Get(key string) ([]byte, bool) {
	b, err := os.ReadFile(k.path(key))
	if err != nil {
		return nil, false
	}
	return b, true
}

// Delete implements KV.
func (k *DirKV) Delete(key string) error {
	err := os.Remove(k.path(key))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
