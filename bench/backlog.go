package main

import (
	"fmt"
	"time"
)

// backlogSizes are the batch sizes the probe tries first: batch_drain's
// round, the first size past the limit at this commit, and a day of
// once-a-minute scans.
var backlogSizes = []int{200, 300, 1440}

// backlogTimeout is how long one flush of a buffered batch may take to
// reach the collector log before the size counts as undrainable.
const backlogTimeout = 5 * time.Second

// drains reports whether one phone can buffer n messages under FlushManual
// and deliver them all with a single Flush over real XMPP.
func drains(n int, stateDir string) (bool, error) {
	wl, err := workloadByName("batch_drain") // FlushManual phones, sink.js on the collector
	if err != nil {
		return false, err
	}
	w, err := buildWorld(wl, stateDir, nil)
	if err != nil {
		return false, err
	}
	defer w.close()
	r := newRun(w, 1, nil)
	for k := 0; k < n; k++ {
		r.publish(0, r.now())
	}
	w.phones[0].Flush()
	for deadline := time.Now().Add(backlogTimeout); time.Now().Before(deadline); {
		if r.delivered.Load() == int64(n) && w.pending() == 0 {
			return true, nil
		}
		time.Sleep(time.Millisecond)
	}
	return false, nil
}

// probeBacklogLimit reports xmpp.max_drainable_batch: the largest number of
// buffered messages one flush delivers. It tries backlogSizes in order and
// bisects between the last size that drained and the first that did not.
func probeBacklogLimit(stateDir string) error {
	good, bad := 0, 0
	for _, n := range backlogSizes {
		ok, err := drains(n, stateDir)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Printf("  batch of %5d: NOT drained within %v\n", n, backlogTimeout)
			bad = n
			break
		}
		fmt.Printf("  batch of %5d: drained\n", n)
		good = n
	}
	for bad != 0 && bad-good > 1 {
		mid := (good + bad) / 2
		ok, err := drains(mid, stateDir)
		if err != nil {
			return err
		}
		if ok {
			good = mid
		} else {
			bad = mid
		}
	}
	if bad == 0 {
		fmt.Printf("xmpp.max_drainable_batch >= %d (every probed size drained)\n", good)
		return nil
	}
	fmt.Printf("xmpp.max_drainable_batch = %d (a flush of %d buffered messages never delivers)\n", good, bad)
	return nil
}
