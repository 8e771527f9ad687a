// Testbed-admin: two of the paper's §6 future-work features working
// together — the owner's per-channel privacy switch and per-script power
// accounting — on devices the administrator assigned with Associate.
//
//	go run ./examples/testbed-admin
package main

import (
	"fmt"
	"os"
	"time"

	"pogo/internal/android"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/radio"
	"pogo/internal/script/scripts"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "testbed-admin:", err)
		os.Exit(1)
	}
}

type phone struct {
	node    *core.Node
	privacy *core.Privacy
	meter   *energy.Meter
}

func run() error {
	clk := vclock.NewSim()
	sb := transport.NewSwitchboard(clk)

	// Two volunteers install Pogo.
	granted := []string{"p1", "p2"}
	phones := map[string]*phone{}
	for _, id := range granted {
		p, err := newPhone(clk, sb, id)
		if err != nil {
			return err
		}
		phones[id] = p
	}

	col, err := core.NewNode(core.Config{
		ID: "researcher", Mode: core.CollectorMode,
		Clock: clk, Messenger: sb.Port("researcher", nil),
	})
	if err != nil {
		return err
	}
	defer col.Close()

	// The administrator assigns both devices to the researcher (§3.1).
	for _, id := range granted {
		sb.Associate("researcher", id)
	}
	fmt.Printf("administrator assigned: %v\n", granted)

	// Deploy the battery experiment to the granted devices.
	col.DeployLocal("battery-collect.js", scripts.MustSource("battery-collect.js"))
	col.Deploy("battery.js", scripts.MustSource("battery.js"))
	clk.Advance(5 * time.Minute)
	fmt.Printf("after 5 min: %d reports collected\n", len(col.Logs().Lines("battery")))

	// One volunteer flips the battery channel off in the Pogo UI.
	revoker := granted[0]
	fmt.Printf("\n%s's owner hides the battery channel...\n", revoker)
	phones[revoker].privacy.SetShared(sensors.ChannelBattery, false)
	before := countFrom(col.Logs().Lines("battery"), revoker)
	clk.Advance(5 * time.Minute)
	after := countFrom(col.Logs().Lines("battery"), revoker)
	fmt.Printf("reports from %s: %d before, +%d after hiding (others keep flowing)\n",
		revoker, before, after-before)

	// Per-script power accounting on a granted device that still shares.
	fmt.Println("\nper-script resource accounting (researcher's view of", granted[1], "):")
	for _, u := range phones[granted[1]].node.ScriptUsages(core.DefaultPowerModel()) {
		fmt.Printf("  %-12s entries=%-4d publishes=%-4d steps=%-8d ≈%.2f J\n",
			u.Name, u.Entries, u.Publishes, u.Steps, u.EstimatedJoules)
	}
	return nil
}

func newPhone(clk *vclock.Sim, sb *transport.Switchboard, id string) (*phone, error) {
	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, radio.KPN)
	conn := radio.NewConnectivity(modem, nil)
	privacy := core.NewPrivacy()
	node, err := core.NewNode(core.Config{
		ID: id, Mode: core.DeviceMode, Clock: clk, Messenger: sb.Port(id, conn),
		Device: droid, Modem: modem, Storage: store.NewMemKV(),
		FlushPolicy: core.FlushImmediate, Privacy: privacy,
	})
	if err != nil {
		return nil, err
	}
	node.Sensors().Register(sensors.NewBatterySensor(node.Sensors(), droid))
	return &phone{node: node, privacy: privacy, meter: meter}, nil
}

func countFrom(lines []string, device string) int {
	n := 0
	for _, l := range lines {
		if len(l) >= len(device) && l[:len(device)] == device {
			n++
		}
	}
	return n
}
