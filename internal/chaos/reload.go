package chaos

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/workload"
)

// reloadPeers is how many peers the candidate config adds on top of
// the running two — the "100-peer config diff" of the acceptance
// scenario.
const reloadPeers = 100

// ReloadResult is the reload-under-churn acceptance verdict: a live
// config transaction must commit against a router carrying a full
// table and taking continuous updates, without the forwarding plane
// noticing for any prefix the diff does not touch.
type ReloadResult struct {
	Result

	// PeersAdded is how many of the candidate's new peers exist after
	// the commit.
	PeersAdded int
	// Generation is the config generation after the reload (2 on
	// success: the seed config is generation 1).
	Generation uint32
	// StableOps counts FIB installs touching pre-reload prefixes
	// during the transaction. The in-place apply contract requires
	// zero: adding peers must not reinstall or bounce existing routes.
	StableOps int
	// LossSamples counts FIB polls during the transaction that were
	// missing any pre-reload route. Zero means no blackhole window.
	LossSamples int
	// ChurnDelivered is how many churn updates the peers injected
	// while the transaction ran — evidence the router was under load,
	// not idle, when it committed.
	ChurnDelivered int
}

// RunReloadUnderChurn is the transactional-reconfiguration acceptance
// scenario on the full rtrmgr assembly, in real time:
//
//  1. A router comes up on the two-peer chaos config and learns a
//     full table from its peers.
//  2. Churn starts: one peer keeps announcing and withdrawing a
//     rolling set of extra prefixes, so the BGP pipeline and FIB are
//     busy for the whole run.
//  3. The config is reloaded with a candidate that adds 100 more
//     passive peers. The two-phase commit runs while the churn and a
//     continuous forwarding-loss sampler are live.
//  4. Acceptance: the reload succeeds, every new peer exists, and the
//     stable prefixes saw zero FIB installs and zero loss samples —
//     the diff was applied in place, invisible to unaffected routes.
func RunReloadUnderChurn() (ReloadResult, error) {
	res := ReloadResult{Result: Result{
		Topology: "rtrmgr",
		Protocol: "bgp",
		Failure:  "config-reload",
		Nodes:    1,
	}}

	r, err := rtrmgr.NewRouter(bgpChaosConfig, rtrmgr.Options{})
	if err != nil {
		return res, err
	}
	if err := r.Start(); err != nil {
		r.Stop()
		return res, err
	}
	defer r.Stop()

	// Full table up front; these prefixes must ride through the reload
	// untouched.
	prefixes := make([]netip.Prefix, bgpRoutes)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("20.%d.0.0/16", i+1))
	}
	start := time.Now()
	inject(r, prefixes)
	if err := waitFor(10*time.Second, func() bool { return fibHasAll(r, prefixes) }); err != nil {
		return res, fmt.Errorf("initial convergence: %w", err)
	}
	res.Initial = time.Since(start)
	res.Converged = true

	// The oracle: any FIB install for a pre-reload prefix during the
	// transaction is a violation of the in-place apply contract.
	stable := make(map[netip.Prefix]bool, len(prefixes))
	for _, pfx := range prefixes {
		stable[pfx] = true
	}
	var stableOps, churned atomic.Int64
	r.FEA.SetInstallObserver(func(e route.Entry) {
		if stable[e.Net] {
			stableOps.Add(1)
		}
	})
	defer r.FEA.SetInstallObserver(nil)

	// Churn: announce/withdraw a rolling prefix well away from the
	// stable set, through peer p1, for the whole transaction window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pfx := netip.MustParsePrefix(fmt.Sprintf("30.%d.0.0/16", i%50+1))
			p := r.CurrentBGP()
			if p == nil {
				return
			}
			up := &bgp.UpdateMsg{
				Attrs: workload.TestAttrs(netip.MustParseAddr("10.0.0.1"), 65002),
				NLRI:  []netip.Prefix{pfx},
			}
			p.Loop().Dispatch(func() { p.InjectUpdate("p1", up) })
			p.Loop().Dispatch(func() { p.InjectUpdate("p1", &bgp.UpdateMsg{Withdrawn: []netip.Prefix{pfx}}) })
			churned.Add(2)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var lossSamples atomic.Int64
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !fibHasAll(r, prefixes) {
				lossSamples.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Don't race the commit against goroutine startup: the scenario
	// only counts if updates were demonstrably flowing when it ran.
	if err := waitFor(5*time.Second, func() bool { return churned.Load() >= 20 }); err != nil {
		close(stop)
		wg.Wait()
		return res, fmt.Errorf("churn never started: %w", err)
	}

	reloadStart := time.Now()
	reloadErr := r.Reload(reloadCandidate())
	res.Recovery = time.Since(reloadStart)
	close(stop)
	wg.Wait()
	res.StableOps = int(stableOps.Load())
	res.LossSamples = int(lossSamples.Load())
	res.ChurnDelivered = int(churned.Load())
	if reloadErr != nil {
		return res, fmt.Errorf("reload: %w", reloadErr)
	}
	res.Recovered = true
	res.Generation = r.Generation()
	res.Blackhole = time.Duration(res.LossSamples) * time.Millisecond

	p := r.CurrentBGP()
	if p == nil {
		return res, fmt.Errorf("no BGP process after reload")
	}
	var added int
	p.Loop().DispatchAndWait(func() {
		for i := 0; i < reloadPeers; i++ {
			if _, ok := p.Peer(fmt.Sprintf("rp%d", i)); ok {
				added++
			}
		}
	})
	res.PeersAdded = added
	return res, nil
}

// reloadCandidate is the running chaos config plus reloadPeers extra
// passive peers: a large diff whose every change is peer-scoped, so a
// correct transactional apply leaves the rest of the router alone.
func reloadCandidate() string {
	var peers strings.Builder
	for i := 0; i < reloadPeers; i++ {
		fmt.Fprintf(&peers, `        peer rp%d {
            local-addr 192.168.1.1
            peer-addr 192.168.1.%d
            as %d
            passive
        }
`, i, i+10, 64600+i)
	}
	return strings.Replace(bgpChaosConfig, "        peer p2 {", peers.String()+"        peer p2 {", 1)
}
