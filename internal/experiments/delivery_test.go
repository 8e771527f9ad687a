package experiments

import (
	"strings"
	"testing"
)

// TestDeliveryErr: each violated count alone fails the verdict with an error
// naming that count and no other; a clean run passes.
func TestDeliveryErr(t *testing.T) {
	fields := []string{"lost=", "dup=", "ooo=", "undrained="}
	for _, tc := range []struct {
		d    Delivery
		want string // "" means nil
	}{
		{Delivery{Expected: 10, Delivered: 10}, ""},
		{Delivery{Expected: 10, Delivered: 9, Lost: 1}, "lost=1"},
		{Delivery{Expected: 10, Delivered: 11, Duplicated: 1}, "dup=1"},
		{Delivery{Expected: 10, Delivered: 10, OutOfOrder: 2}, "ooo=2"},
		{Delivery{Expected: 10, Delivered: 10, Undrained: 3}, "undrained=3"},
	} {
		err := tc.d.Err()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%+v: Err() = %v, want nil", tc.d, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%+v: Err() = nil, want an error naming %s", tc.d, tc.want)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.want) {
			t.Errorf("Err() = %q, want it to name %s", msg, tc.want)
		}
		for _, f := range fields {
			if !strings.HasPrefix(tc.want, f) && strings.Contains(msg, f) {
				t.Errorf("Err() = %q names %s, which is zero", msg, f)
			}
		}
	}
}
