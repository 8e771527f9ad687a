// Command pogo-server runs the central XMPP switchboard (the role Openfire
// plays in the paper, §4.6). It only routes messages and manages rosters;
// all Pogo semantics live in the device and collector nodes.
//
// Usage:
//
//	pogo-server -addr :5222 -associate researcher=dev1,dev2 -auto-register
//
// The -associate flag is the administrator's act of assigning devices to
// researchers (§3.1); it may be repeated. Stanzas for a user who is offline
// wait in a per-user queue of xmpp.QueueCap (64; a full queue evicts its
// oldest) and are replayed when the user next logs in.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"time"

	"pogo/internal/obs"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

type associations []string

func (a *associations) String() string { return strings.Join(*a, ";") }

func (a *associations) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:5222", "TCP listen address")
		autoReg = flag.Bool("auto-register", true, "create accounts on first login (the paper's zero-registration model)")
		metrics = flag.String("metrics", "", "serve /metrics, /trace, /alerts, /stats on this address (e.g. 127.0.0.1:8622); empty disables")
		pprofAt = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		assoc   associations
	)
	flag.Var(&assoc, "associate", "researcher=dev1,dev2 (repeatable)")
	flag.Parse()

	if err := run(*addr, *autoReg, *metrics, *pprofAt, assoc); err != nil {
		fmt.Fprintln(os.Stderr, "pogo-server:", err)
		os.Exit(1)
	}
}

func run(addr string, autoReg bool, metricsAddr, pprofAddr string, assoc associations) error {
	var reg *obs.Registry
	if metricsAddr != "" {
		reg = obs.NewRegistry()
		// Live server: rules evaluate on the real clock (every sampling
		// tick), including the RealTime ones deterministic runs mute; the
		// runtime sampler adds goroutine/heap/GC gauges to every snapshot.
		reg.Alerts().EnsureDefaultRules()
		stopRuntime := obs.StartRuntimeSampler(reg)
		defer stopRuntime()
	}
	srv := xmpp.NewServer(xmpp.ServerConfig{
		Addr: addr, AllowAutoRegister: autoReg, Obs: reg,
	})
	for _, a := range assoc {
		parts := strings.SplitN(a, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -associate %q, want researcher=dev1,dev2", a)
		}
		researcher := strings.TrimSpace(parts[0])
		for _, dev := range strings.Split(parts[1], ",") {
			if dev = strings.TrimSpace(dev); dev != "" {
				srv.Associate(researcher, dev)
			}
		}
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("pogo-server: switchboard listening on %s (auto-register=%v)\n", srv.Addr(), autoReg)
	if metricsAddr != "" {
		// Feed /timeseries: sample the registry on a real-time cadence so
		// pogo-top and windowed rate queries have history to work with.
		stopSampling := obs.StartSampling(vclock.Real{}, reg, 5*time.Second, "server")
		defer stopSampling()
		go func() {
			if err := http.ListenAndServe(metricsAddr, obs.Handler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "pogo-server: metrics:", err)
			}
		}()
		fmt.Printf("pogo-server: metrics on http://%s/metrics (accounting on /accounting, series on /timeseries, alerts on /alerts)\n", metricsAddr)
	}
	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, obs.PprofHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "pogo-server: pprof:", err)
			}
		}()
		fmt.Printf("pogo-server: pprof on http://%s/debug/pprof/\n", pprofAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("pogo-server: shutting down")
	return nil
}
