package transport

import (
	"fmt"
	"testing"
	"unsafe"

	"pogo/internal/msg"
)

// TestBootIDsAreNotInterned: a boot ID is new with every node start. A
// long-lived collector that interned them would fill the interner's bounded
// table with keys never seen again, and from then on every key new to it —
// a channel, a field name — would be copied on every decode.
func TestBootIDsAreNotInterned(t *testing.T) {
	for i := 0; i < 10000; i++ {
		boot := fmt.Sprintf("boot-%d", i)
		env, err := decodeEnvelope(appendEnvelope(nil, "phone-1", boot, nil, []uint64{1}, nil, nil), new(envScratch))
		if err != nil || string(env.Boot) != boot {
			t.Fatalf("decoded boot %q (%v), want %q", env.Boot, err, boot)
		}
	}
	key := []byte("a key first seen after ten thousand boots")
	if a, b := msg.Intern(key), msg.Intern(key); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("the interner no longer shares new keys: boot IDs filled it")
	}
}
