// Quickstart: assemble a complete XORP router in-process, feed it BGP
// routes, and watch them reach the (simulated) kernel forwarding table.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/workload"
)

const config = `
interfaces {
    eth0 { address 192.168.1.1/24; }
}
static {
    route 10.0.0.0/8 next-hop 192.168.1.254 interface eth0;
}
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        peer upstream {
            local-addr 192.168.1.1
            peer-addr 192.168.1.2
            as 65002
            passive
        }
    }
}
`

func main() {
	// One call assembles Finder, FEA, RIB and BGP as separate event-loop
	// processes wired over XRLs (the paper's multi-process architecture).
	r, err := rtrmgr.NewRouter(config, rtrmgr.Options{ConsistencyChecks: true})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		log.Fatal(err)
	}

	// Feed three routes in on the "upstream" peering, as if received in
	// an UPDATE from the neighbour.
	nets := []string{"20.1.0.0/16", "20.2.0.0/16", "20.3.0.0/16"}
	for _, s := range nets {
		net := netip.MustParsePrefix(s)
		u := &bgp.UpdateMsg{
			Attrs: workload.TestAttrs(netip.MustParseAddr("10.0.0.1"), 65002),
			NLRI:  []netip.Prefix{net},
		}
		r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate("upstream", u) })
	}

	// The routes flow through the staged BGP pipeline, the RIB's merge
	// and ExtInt stages, and the FEA, each hop an XRL. Wait for the FIB.
	deadline := time.Now().Add(5 * time.Second)
	for r.FEA.Snapshots().Current().Len() < 2+len(nets) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("kernel forwarding table:")
	r.FEA.Snapshots().Current().Walk(func(e route.Entry) bool {
		via := "direct"
		if e.NextHop.IsValid() {
			via = e.NextHop.String()
		}
		fmt.Printf("  %-18v via %-15s dev %s\n", e.Net, via, e.IfName)
		return true
	})

	// Look a destination up the way the forwarding plane would.
	dst := netip.MustParseAddr("20.2.33.7")
	if e, ok := r.FEA.Snapshots().Current().Lookup(dst); ok {
		fmt.Printf("\n%v -> %v via %v (%s)\n", dst, e.Net, e.NextHop, e.IfName)
	}
}
