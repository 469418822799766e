// Reload: a before/after walkthrough of the transactional hot config
// reload (two-phase validate/commit across processes).
//
// A router comes up on a base config: one interface, two static
// routes, two BGP peers, and a RIP instance. A candidate config then
// changes a little of everything — swaps a static route, removes one
// BGP peer and adds another, retunes RIP's update interval. The demo
// prints the computed diff (the change set each affected process
// validates), commits it, and shows the FIB before and after: only
// the prefixes the diff touches move, because every change is applied
// in place on the live processes — no restarts, no churn for the
// untouched routes.
//
// The second half shows the other side of the contract: a candidate
// that BGP rejects at validation (a local-as change would need a
// restart) aborts atomically — the running config and generation are
// untouched, byte for byte.
//
//	go run ./examples/reload
package main

import (
	"fmt"
	"net/netip"
	"os"
	"sort"
	"strings"

	"xorp/internal/kernel"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
)

const before = `
interfaces {
    eth0 { address 192.168.1.1/24; }
}
static {
    route 10.0.0.0/8 next-hop 192.168.1.254;
    route 10.99.0.0/16 next-hop 192.168.1.253;
}
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        peer p1 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.2
            as 65002
            passive
        }
        peer p2 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.3
            as 65003
            passive
        }
    }
    rip {
        update-interval 30
    }
}
`

// after swaps one static route, trades peer p2 for p3, and halves
// RIP's update interval. Everything else is untouched — and must stay
// untouched in the FIB.
var after = strings.NewReplacer(
	"route 10.99.0.0/16 next-hop 192.168.1.253;",
	"route 10.77.0.0/16 next-hop 192.168.1.253;",
	`peer p2 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.3
            as 65003
            passive
        }`,
	`peer p3 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.4
            as 65004
            passive
        }`,
	"update-interval 30",
	"update-interval 15",
).Replace(before)

func main() {
	r, err := rtrmgr.NewRouter(before, rtrmgr.Options{
		Network:   kernel.NewNetwork(),
		LocalAddr: netip.MustParseAddr("10.0.0.1"),
	})
	check(err)
	check(r.Start())
	defer r.Stop()

	fmt.Println("== running config (generation 1) ==")
	fmt.Print(rtrmgr.Render(r.Config, 1))
	fmt.Println("\n== FIB before ==")
	fmt.Print(fib(r))

	// The diff is what the transaction ships to each process: one
	// change per edited node, with enough rendered text to validate
	// and to invert for rollback.
	running := r.Config
	candidate, err := rtrmgr.ParseConfig(after)
	check(err)
	fmt.Println("\n== computed diff (running -> candidate) ==")
	for _, c := range rtrmgr.DiffConfig(running, candidate) {
		fmt.Printf("  %-6s %s\n", c.Verb, c.PathString())
	}

	// Count FIB installs during the commit: the static swap may touch
	// its own prefix, nothing else may move.
	var installs []string
	r.FEA.SetInstallObserver(func(e route.Entry) {
		installs = append(installs, e.Net.String())
	})
	check(r.Reload(after))
	r.FEA.SetInstallObserver(nil)

	fmt.Printf("\n== committed: generation %d ==\n", r.Generation())
	fmt.Print(rtrmgr.Render(r.Config, 1))
	fmt.Println("\n== FIB after ==")
	fmt.Print(fib(r))
	fmt.Printf("\nFIB installs during commit: %v (only the swapped route)\n", installs)

	// A rejected candidate: local-as cannot change without a BGP
	// restart, so validation nacks and the coordinator aborts before
	// anything is applied anywhere.
	fmt.Println("\n== candidate with local-as 65999 (needs a restart) ==")
	rejected := strings.Replace(after, "local-as 65001", "local-as 65999", 1)
	snapshot := rtrmgr.Render(r.Config, 0)
	err = r.Reload(rejected)
	fmt.Printf("reload: %v\n", err)
	fmt.Printf("running config untouched: %v, still generation %d\n",
		rtrmgr.Render(r.Config, 0) == snapshot, r.Generation())
}

func fib(r *rtrmgr.Router) string {
	var lines []string
	r.FEA.Snapshots().Current().Walk(func(e route.Entry) bool {
		lines = append(lines, fmt.Sprintf("  %v via %v dev %s", e.Net, e.NextHop, e.IfName))
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "reload: %v\n", err)
		os.Exit(1)
	}
}
