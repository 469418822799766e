// Command xorp_fea runs the Forwarding Engine Abstraction process: it
// owns the router's forwarding table, installs the routes the RIB sends it,
// and relays routing protocol packets (paper §3, §7).
//
// Usage:
//
//	xorp_fea -finder 127.0.0.1:19999 [-iface eth0=192.168.1.1/24 ...]
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/finder"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

type ifaceList []string

func (l *ifaceList) String() string     { return strings.Join(*l, ",") }
func (l *ifaceList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	var ifaces ifaceList
	flag.Var(&ifaces, "iface", "interface as name=addr/prefix (repeatable)")
	flag.Parse()

	loop := eventloop.New(nil)
	router := xipc.NewRouter("fea_process", loop)
	if err := router.ListenTCP("127.0.0.1:0"); err != nil {
		fatal(err)
	}
	router.SetFinderTCP(*finderAddr)

	proc := fea.New(loop, nil, router)
	for _, spec := range ifaces {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -iface %q, want name=addr/prefix", spec))
		}
		pfx, err := netip.ParsePrefix(addr)
		if err != nil {
			fatal(err)
		}
		proc.AddInterface(name, pfx, 1500)
	}

	target := xif.NewTarget("fea", "fea")
	proc.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	if err := finder.RegisterTargetSync(router, target, true); err != nil {
		fatal(err)
	}
	fmt.Printf("xorp_fea: registered with finder at %s\n", *finderAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	loop.Stop()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xorp_fea: %v\n", err)
	os.Exit(1)
}
