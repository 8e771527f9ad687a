// Command pogo-collector runs a Pogo node in collector mode: the
// researcher's side of the testbed (§4.2). It connects to the switchboard,
// deploys every *.js file from -scripts to the devices on its roster
// (files matching *collect*.js run locally instead), and prints the data
// its local scripts log.
//
// Usage:
//
//	pogo-collector -server 127.0.0.1:5222 -id researcher -scripts ./exp/
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"pogo/internal/core"
	"pogo/internal/geo"
	"pogo/internal/obs"
	"pogo/internal/transport"
	"pogo/internal/vclock"
)

func main() {
	var (
		server    = flag.String("server", "127.0.0.1:5222", "switchboard address")
		id        = flag.String("id", "researcher", "collector identity")
		password  = flag.String("password", "pogo", "account password")
		scriptDir = flag.String("scripts", "", "directory of experiment scripts (required)")
		metrics   = flag.String("metrics", "", "serve /metrics, /trace, /alerts, /stats on this address (e.g. 127.0.0.1:8623); empty disables")
		pprofAt   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6061); empty disables")
	)
	flag.Parse()
	if *scriptDir == "" {
		fmt.Fprintln(os.Stderr, "pogo-collector: -scripts is required")
		os.Exit(1)
	}
	if err := run(*server, *id, *password, *scriptDir, *metrics, *pprofAt); err != nil {
		fmt.Fprintln(os.Stderr, "pogo-collector:", err)
		os.Exit(1)
	}
}

func run(server, id, password, scriptDir, metricsAddr, pprofAddr string) error {
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
		// Live collector: the full rule pack (RealTime rules included)
		// evaluates on every real-clock sampling tick, and the runtime
		// sampler contributes goroutine/heap/GC gauges.
		reg.Alerts().EnsureDefaultRules()
		stopRuntime := obs.StartRuntimeSampler(reg)
		defer stopRuntime()
	}
	messenger, err := transport.DialXMPP(server, id, password, "pc")
	if err != nil {
		return fmt.Errorf("connect %s: %w", server, err)
	}
	defer messenger.Close()
	messenger.Instrument(reg)

	node, err := core.NewNode(core.Config{
		ID: id, Mode: core.CollectorMode, Clock: vclock.Real{}, Messenger: messenger,
		FlushPolicy: core.FlushImmediate, Obs: reg,
		OnPrint: func(script, text string) {
			fmt.Printf("[%s] %s\n", script, text)
		},
		OnScriptError: func(script string, err error) {
			fmt.Fprintf(os.Stderr, "[%s] error: %v\n", script, err)
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	// Attach the geolocation service so localization experiments work.
	db := geo.NewDB()
	svc := geo.NewService(db, node.LocalContext().Broker())
	defer svc.Close()

	// Stream everything local scripts write to their logs.
	node.Logs().SetOnAppend(func(logName, line string) {
		fmt.Printf("%s << %s\n", logName, line)
	})

	if metricsAddr != "" {
		// Sample the registry so /timeseries carries history for pogo-top
		// and windowed rate queries.
		stopSampling := obs.StartSampling(vclock.Real{}, reg, 5*time.Second, id)
		defer stopSampling()
		go func() {
			if err := http.ListenAndServe(metricsAddr, obs.Handler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "pogo-collector: metrics:", err)
			}
		}()
		fmt.Printf("pogo-collector: metrics on http://%s/metrics (accounting on /accounting, series on /timeseries, alerts on /alerts)\n", metricsAddr)
	}
	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, obs.PprofHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "pogo-collector: pprof:", err)
			}
		}()
		fmt.Printf("pogo-collector: pprof on http://%s/debug/pprof/\n", pprofAddr)
	}

	entries, err := os.ReadDir(scriptDir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".js") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no *.js scripts in %s", scriptDir)
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(scriptDir, name))
		if err != nil {
			return err
		}
		if strings.Contains(name, "collect") {
			if err := node.DeployLocal(name, string(src)); err != nil {
				return fmt.Errorf("local %s: %w", name, err)
			}
			fmt.Printf("pogo-collector: running %s locally\n", name)
		} else {
			if err := node.Deploy(name, string(src)); err != nil {
				return fmt.Errorf("deploy %s: %w", name, err)
			}
			fmt.Printf("pogo-collector: deployed %s to roster %v\n", name, messenger.Peers())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pogo-collector: shutting down")
	return nil
}
