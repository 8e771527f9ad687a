package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pogo/internal/obs"
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

// TestDeliveryAudit feeds the auditor crafted entries on a two-phone,
// two-collector table laid out like the fleet's (phones 0 and 1, collectors
// at entity 2 and 3, phone p on collector p; 3 uploads and 2 commands per
// phone) and checks each delivery's verdict and the final counts.
func TestDeliveryAudit(t *testing.T) {
	const phones, uploads, cmds = 2, 3, 2
	up := func(p, n int32) deliveryEntry {
		return deliveryEntry{recv: phones + p, send: p, n: n, ch: chanUpload}
	}
	cmd := func(p, n int32) deliveryEntry {
		return deliveryEntry{recv: p, send: phones + p, n: n, ch: chanCmd}
	}
	type step struct {
		e    deliveryEntry
		want verdict
	}
	// every is each scheduled delivery once, in order.
	var every []step
	for p := int32(0); p < phones; p++ {
		for n := int32(0); n < uploads; n++ {
			every = append(every, step{up(p, n), inOrder})
		}
		for n := int32(0); n < cmds; n++ {
			every = append(every, step{cmd(p, n), inOrder})
		}
	}
	all := phones * (uploads + cmds)
	for _, tc := range []struct {
		name           string
		steps          []step
		lost, dup, ooo int
	}{
		{"clean", every, 0, 0, 0},
		{"duplicate", []step{{up(0, 0), inOrder}, {up(0, 1), inOrder}, {up(0, 1), duplicate}}, all - 2, 1, 0},
		{"reorder", []step{{up(0, 1), inOrder}, {up(0, 0), outOfOrder}, {up(0, 2), inOrder}}, all - 3, 0, 1},
		{"repeat of an older n", []step{
			{cmd(1, 0), inOrder}, {cmd(1, 1), inOrder}, {cmd(1, 0), duplicate},
		}, all - 2, 1, 1},
		{"out of order once per stream", []step{
			{up(0, 2), inOrder}, {up(0, 0), outOfOrder}, {up(0, 1), outOfOrder},
			{cmd(1, 1), inOrder}, {cmd(1, 0), outOfOrder},
		}, all - 5, 0, 2},
		{"missing n is lost", append(slices.Clone(every[:1]), every[2:]...), 1, 0, 0},
		{"unscheduled or out of range", []step{
			{deliveryEntry{recv: 3, send: 0, n: 0, ch: chanUpload}, unaudited}, // not phone 0's collector
			{deliveryEntry{recv: 2, send: 0, n: 0, ch: chanCmd}, unaudited},    // a command upstream
			{deliveryEntry{recv: 1, send: 0, n: 0, ch: chanUpload}, unaudited}, // phone to phone
			{deliveryEntry{recv: 2, send: -1, n: 0, ch: chanUpload}, unaudited},
			{deliveryEntry{recv: 2, send: 0, n: 0, ch: 2}, unaudited},
			{up(0, -1), unaudited},
			{up(0, uploads), unaudited},
			{cmd(1, cmds), unaudited},
		}, all, 0, 0},
	} {
		a := newDeliveryAudit(0, phones, []int32{0, 1}, uploads, cmds)
		for i, s := range tc.steps {
			if got := a.add(s.e); got != s.want {
				t.Errorf("%s: step %d %+v: verdict %d, want %d", tc.name, i, s.e, got, s.want)
			}
		}
		lost, dup, ooo := a.counts()
		if lost != tc.lost || dup != tc.dup || ooo != tc.ooo {
			t.Errorf("%s: lost/dup/ooo = %d/%d/%d, want %d/%d/%d", tc.name, lost, dup, ooo, tc.lost, tc.dup, tc.ooo)
		}
	}
}

// TestChaosOffScheduleDeliveriesNotAudited: deliveries off the scheduled
// streams — another channel, an n past the stream's count — are logged and
// counted in Delivered, but neither audited nor charged as violations.
func TestChaosOffScheduleDeliveriesNotAudited(t *testing.T) {
	cfg := small(ChaosConfig{Seed: 5})
	cfg.Obs = obs.NewRegistry()
	w := NewChaosWorld(cfg)
	for k := 0; k < w.Rounds(); k++ {
		w.RunRound(k)
	}
	for _, e := range []struct {
		channel string
		n       int
	}{{"flash", 0}, {"upload", cfg.MessagesPerPhone}} {
		if err := w.Enqueue(ChaosPhoneName(1), ChaosCollectorName, e.channel, e.n); err != nil {
			t.Fatal(err)
		}
	}
	w.Drain()
	res := w.Result("off-schedule")
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected+2 {
		t.Errorf("delivered %d, want %d scheduled + 2 off-schedule", res.Delivered, res.Expected)
	}
	if got := sumViolations(cfg.Obs); got != 0 {
		t.Errorf("delivery_violations_total = %d, want 0", got)
	}
	for _, want := range []string{"collector <- phone01 flash 0", fmt.Sprintf("collector <- phone01 upload %d", cfg.MessagesPerPhone)} {
		if !slices.Contains(res.Log, want) {
			t.Errorf("log lacks %q", want)
		}
	}
}

func sumViolations(reg *obs.Registry) int64 {
	return reg.CounterValue("delivery_violations_total", obs.L("kind", "duplicate")) +
		reg.CounterValue("delivery_violations_total", obs.L("kind", "out_of_order"))
}
