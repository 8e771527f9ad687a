package store

import (
	"os"
	"path/filepath"
	"testing"
)

func testKVContract(t *testing.T, kv KV) {
	t.Helper()
	if _, ok := kv.Get("missing"); ok {
		t.Error("Get(missing) = ok")
	}
	if err := kv.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := kv.Get("k1"); !ok || string(v) != "v1" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	// Overwrite.
	kv.Put("k1", []byte("v2"))
	if v, _ := kv.Get("k1"); string(v) != "v2" {
		t.Errorf("overwrite: %q", v)
	}
	// Keys with path-hostile characters must be safe.
	weird := "frozen/col/../../etc/passwd\x00?.js"
	if err := kv.Put(weird, []byte("x")); err != nil {
		t.Fatalf("weird key: %v", err)
	}
	if v, ok := kv.Get(weird); !ok || string(v) != "x" {
		t.Error("weird key lost")
	}
	if err := kv.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.Get("k1"); ok {
		t.Error("Get after Delete")
	}
	if err := kv.Delete("never-existed"); err != nil {
		t.Errorf("Delete(missing) = %v", err)
	}
}

func TestMemKVContract(t *testing.T) {
	testKVContract(t, NewMemKV())
}

func TestMemKVCopies(t *testing.T) {
	kv := NewMemKV()
	buf := []byte("abc")
	kv.Put("k", buf)
	buf[0] = 'X'
	v, _ := kv.Get("k")
	if string(v) != "abc" {
		t.Error("Put aliases caller buffer")
	}
	v[0] = 'Y'
	v2, _ := kv.Get("k")
	if string(v2) != "abc" {
		t.Error("Get returns aliased buffer")
	}
}

func TestDirKVContract(t *testing.T) {
	kv, err := NewDirKV(filepath.Join(t.TempDir(), "kv"))
	if err != nil {
		t.Fatal(err)
	}
	testKVContract(t, kv)
}

func TestDirKVSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kv")
	kv, err := NewDirKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kv.Put("frozen/col/clustering.js", []byte(`{"window":[]}`))
	kv.Put("other", []byte("x"))

	// "Reboot".
	kv2, err := NewDirKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := kv2.Get("frozen/col/clustering.js"); !ok || string(v) != `{"window":[]}` {
		t.Errorf("recovered = %q, %v", v, ok)
	}
	if v, ok := kv2.Get("other"); !ok || string(v) != "x" {
		t.Errorf("recovered other = %q, %v", v, ok)
	}
}

func TestDirKVBadDir(t *testing.T) {
	// A file where the directory should be.
	path := filepath.Join(t.TempDir(), "occupied")
	if kv, err := NewDirKV(path); err != nil {
		t.Fatal(err) // first create is fine
	} else {
		kv.Put("x", nil)
	}
	// Creating under a regular file must fail.
	file := filepath.Join(t.TempDir(), "plain")
	if err := writeFile(file, "data"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirKV(filepath.Join(file, "sub")); err == nil {
		t.Error("NewDirKV under a file succeeded")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
