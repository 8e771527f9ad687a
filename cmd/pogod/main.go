// Command pogod runs a Pogo device node: the middleware a volunteer's phone
// executes (§3.3 — install and go, no registration). Since this build runs
// on servers rather than phones, the phone hardware is simulated in real
// time: a battery model, a 3G modem with tail behaviour, and a Wi-Fi
// environment generated from a synthetic world in which the "user" follows
// a daily schedule.
//
// Usage:
//
//	pogod -server 127.0.0.1:5222 -id dev1 -state /tmp/pogo-dev1
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pogo/internal/android"
	"pogo/internal/core"
	"pogo/internal/energy"
	"pogo/internal/env"
	"pogo/internal/obs"
	"pogo/internal/radio"
	"pogo/internal/sensors"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

func main() {
	var (
		server   = flag.String("server", "127.0.0.1:5222", "switchboard address")
		id       = flag.String("id", "dev1", "device identity")
		password = flag.String("password", "pogo", "account password")
		stateDir = flag.String("state", "", "state directory (default: temp)")
		seed     = flag.Int64("seed", 42, "synthetic world seed")
		verbose  = flag.Bool("v", true, "print script output")
		hide     = flag.String("hide", "", "comma-separated channels the owner does NOT share (e.g. location,wifi-scan)")
		stats    = flag.Bool("stats", false, "dump the metrics registry on shutdown")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6062); empty disables")
	)
	flag.Parse()
	if err := run(*server, *id, *password, *stateDir, *seed, *verbose, *hide, *stats, *pprofAt); err != nil {
		fmt.Fprintln(os.Stderr, "pogod:", err)
		os.Exit(1)
	}
}

func run(server, id, password, stateDir string, seed int64, verbose bool, hide string, stats bool, pprofAddr string) error {
	var reg *obs.Registry
	if stats {
		reg = obs.NewRegistry()
		// The shutdown dump should cover the process itself, not just the
		// middleware: fold goroutine/heap/GC gauges into the registry.
		stopRuntime := obs.StartRuntimeSampler(reg)
		defer stopRuntime()
	}
	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, obs.PprofHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "pogod: pprof:", err)
			}
		}()
		fmt.Printf("pogod: pprof on http://%s/debug/pprof/\n", pprofAddr)
	}
	privacy := core.NewPrivacy()
	for _, ch := range strings.Split(hide, ",") {
		if ch = strings.TrimSpace(ch); ch != "" {
			privacy.SetShared(ch, false)
		}
	}
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "pogod-"+id+"-")
		if err != nil {
			return err
		}
		stateDir = dir
	}
	storage, err := store.NewDirKV(filepath.Join(stateDir, "kv"))
	if err != nil {
		return err
	}

	clk := vclock.Real{}
	meter := energy.NewMeter(clk)
	droid := android.NewDevice(clk, meter, android.Config{})
	modem := radio.NewModem(clk, meter, radio.KPN)
	conn := radio.NewConnectivity(modem, nil)
	// Attribute energy to the ledger: the meter books every component except
	// the modem, which the modem instrument splits by RRC state instead.
	defer meter.Instrument(reg, id, "modem")()
	defer modem.Instrument(reg, id)()

	messenger, err := transport.DialXMPP(server, id, password, "phone")
	if err != nil {
		return fmt.Errorf("connect %s: %w", server, err)
	}
	defer messenger.Close()
	messenger.Instrument(reg)

	node, err := core.NewNode(core.Config{
		ID: id, Mode: core.DeviceMode, Clock: clk, Messenger: messenger,
		Device: droid, Modem: modem, Storage: storage, Privacy: privacy, Obs: reg,
		OutboxPath:  filepath.Join(stateDir, "outbox.log"),
		FlushPolicy: core.FlushInterval, FlushEvery: 15 * time.Second,
		OnPrint: func(script, text string) {
			if verbose {
				fmt.Printf("[%s] %s\n", script, text)
			}
		},
		OnScriptError: func(script string, err error) {
			fmt.Fprintf(os.Stderr, "[%s] error: %v\n", script, err)
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	_ = conn

	// Synthetic sensing environment, anchored at process start.
	world := env.NewWorld(seed)
	schedule := world.GenerateSchedule(id, env.ScheduleConfig{Start: clk.Now(), Days: 365, Seed: seed})
	view := env.NewDeviceView(clk, schedule, seed+1)
	node.Sensors().Register(sensors.NewWifiScanSensor(node.Sensors(), view, sensors.WifiScanConfig{Meter: meter}))
	node.Sensors().Register(sensors.NewBatterySensor(node.Sensors(), droid))
	node.Sensors().Register(sensors.NewLocationSensor(node.Sensors(), view))

	fmt.Printf("pogod: %s attached to %s (state in %s); awaiting experiments\n", id, server, stateDir)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pogod: shutting down")
	if stats {
		node.Close() // flush the final per-script usage export
		obs.WriteText(os.Stdout, reg)
	}
	return nil
}
