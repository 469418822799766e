package rtrmgr

import (
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/ospf"
	"xorp/internal/policy"
	"xorp/internal/rib"
	"xorp/internal/rip"
	"xorp/internal/route"
)

// txAgent is one process's side of the config/0.1 transaction protocol
// (xif.ConfigServer). validate_tx decodes its change slice, checks each
// change against live process state, and stages apply closures;
// commit_tx runs them; abort_tx discards them. Handlers run on the
// owning process's event loop (XRL dispatch), so staged closures touch
// process state loop-safely. A respawned process gets a fresh agent
// with no staged state — a commit_tx arriving after a mid-transaction
// crash therefore fails, which is exactly what forces the coordinator
// to roll back.
type txAgent struct {
	r     *Router
	class string
	loop  *eventloop.Loop

	// The owning protocol process, by class (nil for fea/rib agents,
	// which reach r.FEA / r.RIB directly).
	bgp  *bgp.Process
	rip  *rip.Process
	ospf *ospf.Process

	mu    sync.Mutex
	txID  uint32
	steps []txStep
}

// txStep is one staged apply action.
type txStep struct {
	desc  string
	apply func() error
}

// ValidateTx implements xif.ConfigServer: stage or nack.
func (a *txAgent) ValidateTx(txID, generation uint32, encoded []string) (bool, string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if gen := a.r.Generation(); generation != gen {
		return false, fmt.Sprintf("stale generation %d (running %d)", generation, gen), nil
	}
	if a.txID != 0 && a.txID != txID {
		return false, fmt.Sprintf("transaction %d already staged", a.txID), nil
	}
	a.txID, a.steps = 0, nil // revalidation replaces any prior staging
	changes, err := DecodeChanges(encoded)
	if err != nil {
		return false, err.Error(), nil
	}
	var steps []txStep
	for _, c := range changes {
		ss, reason, err := a.stage(c)
		if err != nil {
			return false, fmt.Sprintf("%s: %v", c.PathString(), err), nil
		}
		if reason != "" {
			return false, fmt.Sprintf("%s: %s", c.PathString(), reason), nil
		}
		steps = append(steps, ss...)
	}
	a.txID, a.steps = txID, steps
	return true, "", nil
}

// CommitTx implements xif.ConfigServer: run the staged steps.
func (a *txAgent) CommitTx(txID uint32) (uint32, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.txID != txID {
		return 0, fmt.Errorf("%s: no staged transaction %d", a.class, txID)
	}
	var n uint32
	for _, st := range a.steps {
		if err := st.apply(); err != nil {
			a.txID, a.steps = 0, nil
			return n, fmt.Errorf("%s: %s: %w", a.class, st.desc, err)
		}
		n++
	}
	a.txID, a.steps = 0, nil
	return n, nil
}

// AbortTx implements xif.ConfigServer (idempotent).
func (a *txAgent) AbortTx(txID uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.txID == txID {
		a.txID, a.steps = 0, nil
	}
	return nil
}

// stage validates one change and returns its apply steps (or a nack
// reason for changes this process cannot absorb without a restart).
func (a *txAgent) stage(c Change) ([]txStep, string, error) {
	switch a.class {
	case "fea":
		return a.stageFEA(c)
	case "rib":
		return a.stageRIB(c)
	case "bgp":
		return a.stageBGP(c)
	case "rip":
		return a.stageRIP(c)
	case "ospf":
		return a.stageOSPF(c)
	}
	return nil, fmt.Sprintf("unknown agent class %s", a.class), nil
}

// onRIB runs fn on the RIB loop and waits. With a shared loop (all
// simulated assemblies) the agent is already on it, so the call is
// direct; with per-process loops the RIB loop runs on its own
// goroutine, so a blocking hop is safe.
func (a *txAgent) onRIB(fn func() error) error {
	ribLoop := a.r.RIB.Loop()
	if ribLoop == a.loop {
		return fn()
	}
	var err error
	done := make(chan struct{})
	ribLoop.Dispatch(func() {
		err = fn()
		close(done)
	})
	<-done
	return err
}

// --- FEA: interface additions only. Removing or renumbering a live
// interface strands connected routes and bound sockets — restart.

func (a *txAgent) stageFEA(c Change) ([]txStep, string, error) {
	if len(c.Path) < 2 || c.Path[0] != "interfaces" {
		return nil, "unsupported FEA change", nil
	}
	if c.Verb != ChangeAdd {
		return nil, "interface removal or renumbering requires a restart", nil
	}
	ifn := c.New
	addrStr := ifn.Leaf("address")
	if addrStr == "" {
		return nil, "interface has no address", nil
	}
	pfx, err := netip.ParsePrefix(addrStr)
	if err != nil {
		return nil, "", err
	}
	mtu := 1500
	if m := ifn.Leaf("mtu"); m != "" {
		if mtu, err = strconv.Atoi(m); err != nil {
			return nil, "", err
		}
	}
	name := ifn.Key
	return []txStep{{
		desc: "add interface " + name,
		apply: func() error {
			a.r.FEA.AddInterface(name, pfx, mtu)
			entry := route.Entry{Net: pfx.Masked(), IfName: name}
			return a.onRIB(func() error {
				return a.r.RIB.AddRoute(route.ProtoConnected, entry)
			})
		},
	}}, "", nil
}

// --- RIB: static route set changes.

func (a *txAgent) stageRIB(c Change) ([]txStep, string, error) {
	if len(c.Path) < 2 || c.Path[0] != "static" {
		return nil, "unsupported RIB change", nil
	}
	var steps []txStep
	if c.Old != nil { // remove (or the removal half of a modify)
		e, err := parseStaticRoute(c.Old)
		if err != nil {
			return nil, "", err
		}
		steps = append(steps, txStep{
			desc:  "delete static " + e.Net.String(),
			apply: func() error { return a.r.RIB.DeleteRoute(route.ProtoStatic, e.Net) },
		})
	}
	if c.New != nil { // add
		e, err := parseStaticRoute(c.New)
		if err != nil {
			return nil, "", err
		}
		steps = append(steps, txStep{
			desc:  "add static " + e.Net.String(),
			apply: func() error { return a.r.RIB.AddRoute(route.ProtoStatic, e) },
		})
	}
	return steps, "", nil
}

// --- BGP: per-peer add/remove/rebuild and redistribution filter swaps.
// Everything else under the bgp block is identity (local-as, id) and
// needs a restart.

func (a *txAgent) stageBGP(c Change) ([]txStep, string, error) {
	if len(c.Path) < 3 {
		return nil, "unsupported BGP change", nil
	}
	unit := c.Path[2]
	switch {
	case unit == "local-as" || unit == "id":
		return nil, "changing the BGP identity requires a restart", nil
	case unit == "damping":
		return nil, "toggling damping requires a restart", nil
	case len(unit) >= 5 && unit[:5] == "peer ":
		return a.stageBGPPeer(c)
	case len(unit) >= 12 && unit[:12] == "redistribute":
		return a.stageRedist(c, "to-bgp-", func(proto string, filter rib.RedistFilter) error {
			return a.onRIB(func() error {
				_, err := a.r.RIB.AddRedist("to-bgp-"+proto, filter, directRedist{bgp: a.bgp})
				if err == nil {
					a.r.procMu.Lock()
					a.r.bgpRedists = append(a.r.bgpRedists, "to-bgp-"+proto)
					a.r.procMu.Unlock()
				}
				return err
			})
		})
	}
	return nil, fmt.Sprintf("unsupported BGP change %q", unit), nil
}

func (a *txAgent) stageBGPPeer(c Change) ([]txStep, string, error) {
	var steps []txStep
	if c.Old != nil {
		pc, err := parsePeerConfig(c.Old, nil)
		if err != nil {
			return nil, "", err
		}
		if _, ok := a.bgp.Peer(pc.Name); !ok {
			return nil, fmt.Sprintf("no peer %q", pc.Name), nil
		}
		name := pc.Name
		steps = append(steps, txStep{
			desc:  "remove peer " + name,
			apply: func() error { return a.bgp.RemovePeer(name) },
		})
	}
	if c.New != nil {
		pc, err := parsePeerConfig(c.New, nil)
		if err != nil {
			return nil, "", err
		}
		if c.Old == nil {
			if _, dup := a.bgp.Peer(pc.Name); dup {
				return nil, fmt.Sprintf("peer %q already exists", pc.Name), nil
			}
		}
		enable := a.r.running
		steps = append(steps, txStep{
			desc: "add peer " + pc.Name,
			apply: func() error {
				if _, err := a.bgp.AddPeer(pc); err != nil {
					return err
				}
				if enable {
					return a.bgp.EnablePeer(pc.Name)
				}
				return nil
			},
		})
	}
	return steps, "", nil
}

// stageRedist handles redistribute add/remove/re-filter for BGP and
// OSPF. addFn splices a fresh redist stage; removes and in-place filter
// swaps (the synthetic policy-edit change) go straight to the RIB.
func (a *txAgent) stageRedist(c Change, prefix string, addFn func(proto string, f rib.RedistFilter) error) ([]txStep, string, error) {
	switch {
	case c.Verb == ChangeModify && c.New != nil:
		// Policy body edit: recompile and swap the filter in place.
		proto, filter, err := a.redistFilterFromNode(c.New)
		if err != nil {
			return nil, "", err
		}
		name := prefix + proto
		return []txStep{{
			desc: "re-filter " + name,
			apply: func() error {
				return a.onRIB(func() error { return a.r.RIB.SetRedistFilter(name, filter) })
			},
		}}, "", nil
	case c.Verb == ChangeAdd:
		proto, filter, err := a.redistFilterFromNode(c.New)
		if err != nil {
			return nil, "", err
		}
		return []txStep{{
			desc:  "add redist " + prefix + proto,
			apply: func() error { return addFn(proto, filter) },
		}}, "", nil
	case c.Verb == ChangeRemove:
		proto := c.Old.Arg(0)
		name := prefix + proto
		return []txStep{{
			desc: "remove redist " + name,
			apply: func() error {
				return a.onRIB(func() error {
					if err := a.r.RIB.RemoveRedist(name); err != nil {
						return err
					}
					a.r.procMu.Lock()
					defer a.r.procMu.Unlock()
					lists := map[string]*[]string{"bgp": &a.r.bgpRedists, "ospf": &a.r.ospfRedists}
					if lp := lists[a.class]; lp != nil {
						for i, n := range *lp {
							if n == name {
								*lp = append((*lp)[:i], (*lp)[i+1:]...)
								break
							}
						}
					}
					return nil
				})
			},
		}}, "", nil
	}
	return nil, "unsupported redistribute change", nil
}

// redistFilterFromNode compiles the filter for a redistribute statement,
// preferring the policy body embedded by the plan compiler (the
// candidate's version) over the running config's copy.
func (a *txAgent) redistFilterFromNode(rd *Node) (string, rib.RedistFilter, error) {
	proto := rd.Arg(0)
	if polName := rd.Arg(1); polName != "" {
		pol, err := a.compileEmbedded(rd, polName)
		if err != nil {
			return proto, nil, err
		}
		return proto, policy.RIBRedistFilter(pol), nil
	}
	want, err := route.ParseProtocol(proto)
	if err != nil {
		return proto, nil, err
	}
	return proto, func(e route.Entry) *route.Entry {
		if e.Protocol != want {
			return nil
		}
		return &e
	}, nil
}

func (a *txAgent) compileEmbedded(n *Node, polName string) (*policy.Policy, error) {
	for _, pn := range n.ChildrenNamed("policy") {
		if pn.Arg(0) == polName {
			return policy.Compile(polName, Render(pn, 0))
		}
	}
	return a.r.compilePolicy(polName)
}

// --- RIP: timer retunes only.

func (a *txAgent) stageRIP(c Change) ([]txStep, string, error) {
	if len(c.Path) < 3 {
		return nil, "unsupported RIP change", nil
	}
	if c.Verb == ChangeRemove {
		return nil, "removing a RIP timer requires a restart", nil
	}
	dur, err := leafSeconds(c.New)
	if err != nil {
		return nil, "", err
	}
	var delta rip.Config
	switch c.Path[2] {
	case "update-interval":
		delta.UpdateInterval = dur
	case "timeout":
		delta.Timeout = dur
	case "gc-time":
		delta.GCTime = dur
	case "triggered-delay":
		delta.TriggeredDelay = dur
	default:
		return nil, fmt.Sprintf("unsupported RIP change %q", c.Path[2]), nil
	}
	return []txStep{{
		desc:  "retune " + c.Path[2],
		apply: func() error { a.rip.Retune(delta); return nil },
	}}, "", nil
}

// --- OSPF: timer/cost retunes and export filter swaps.

func (a *txAgent) stageOSPF(c Change) ([]txStep, string, error) {
	if len(c.Path) < 3 {
		return nil, "unsupported OSPF change", nil
	}
	unit := c.Path[2]
	if len(unit) >= 12 && unit[:12] == "redistribute" {
		return a.stageRedist(c, "to-ospf-", func(proto string, filter rib.RedistFilter) error {
			out := ospfRedistAdapter{loop: a.loop, p: a.ospf}
			return a.onRIB(func() error {
				_, err := a.r.RIB.AddRedist("to-ospf-"+proto, filter, out)
				if err == nil {
					a.r.procMu.Lock()
					a.r.ospfRedists = append(a.r.ospfRedists, "to-ospf-"+proto)
					a.r.procMu.Unlock()
				}
				return err
			})
		})
	}
	switch unit {
	case "router-id":
		return nil, "changing the OSPF router id requires a restart", nil
	case "export":
		if c.Verb == ChangeRemove {
			return []txStep{{
				desc:  "clear export filter",
				apply: func() error { a.ospf.SetExportFilter(nil); return nil },
			}}, "", nil
		}
		polName := c.New.Arg(0)
		pol, err := a.compileEmbedded(c.New, polName)
		if err != nil {
			return nil, "", err
		}
		filter := policy.OSPFExportFilter(pol)
		return []txStep{{
			desc:  "swap export filter " + polName,
			apply: func() error { a.ospf.SetExportFilter(filter); return nil },
		}}, "", nil
	case "hello-interval", "dead-interval", "cost":
		if c.Verb == ChangeRemove {
			return nil, "removing an OSPF timer requires a restart", nil
		}
		var hello, dead time.Duration
		var cost uint16
		switch unit {
		case "cost":
			v, err := strconv.ParseUint(c.New.Arg(0), 10, 16)
			if err != nil {
				return nil, "", err
			}
			cost = uint16(v)
		case "hello-interval":
			d, err := leafSeconds(c.New)
			if err != nil {
				return nil, "", err
			}
			hello = d
		case "dead-interval":
			d, err := leafSeconds(c.New)
			if err != nil {
				return nil, "", err
			}
			dead = d
		}
		return []txStep{{
			desc:  "retune " + unit,
			apply: func() error { a.ospf.Retune(hello, dead, cost); return nil },
		}}, "", nil
	}
	return nil, fmt.Sprintf("unsupported OSPF change %q", unit), nil
}

// leafSeconds parses a leaf's single argument as whole seconds.
func leafSeconds(n *Node) (time.Duration, error) {
	sec, err := strconv.Atoi(n.Arg(0))
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %v", n.Arg(0), err)
	}
	return time.Duration(sec) * time.Second, nil
}
