package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pogo/internal/msg"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

// TestConcurrentDeliveriesKeepPublisherOrder publishes from several
// goroutines at once into a real-clock collector's broker: every message
// reaches the script exactly once, and each publisher's messages arrive in
// the order it published them.
func TestConcurrentDeliveriesKeepPublisherOrder(t *testing.T) {
	const publishers, each = 4, 300
	clk := vclock.Real{}
	col, err := NewNode(Config{ID: "collector", Mode: CollectorMode, Clock: clk, Messenger: transport.NewSwitchboard(clk).Port("collector", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var wg sync.WaitGroup
	wg.Add(publishers * each)
	col.Logs().SetOnAppend(func(log, line string) {
		if log == "seen" {
			wg.Done()
		}
	})
	if err := col.DeployLocal("seen.js", `subscribe('ch', function (m) { logTo('seen', m.p + ' ' + m.i); });`); err != nil {
		t.Fatal(err)
	}
	broker := col.LocalContext().Broker()
	for p := 0; p < publishers; p++ {
		go func() {
			for i := 0; i < each; i++ {
				broker.Publish("ch", msg.Map{"p": float64(p), "i": float64(i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d messages logged", len(col.Logs().Lines("seen")), publishers*each)
	}
	next := make([]int, publishers)
	for _, line := range col.Logs().Lines("seen") {
		f := strings.Fields(line)
		p, _ := strconv.Atoi(f[0])
		i, _ := strconv.Atoi(f[1])
		if i != next[p] {
			t.Fatalf("publisher %d: message %d arrived when %d was next", p, i, next[p])
		}
		next[p]++
	}
	if got := fmt.Sprint(next); got != fmt.Sprint([]int{each, each, each, each}) {
		t.Errorf("per-publisher counts %s", got)
	}
}
