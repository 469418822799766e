package rtrmgr

import (
	"fmt"
	"strings"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// Transactional hot reload: the rtrmgr diffs the running configuration
// against a candidate (diff.go), compiles the changes into per-process
// slices, and drives them through the config/0.1 interface as a
// two-phase commit. Every affected process first validates its slice
// against live state (phase 1); only if all participants ack does the
// coordinator commit (phase 2). Any validation nack, commit failure, or
// participant death aborts the transaction — already-committed
// processes are rolled back with the inverse plan in reverse order — so
// the running config is swapped atomically or not at all. Unaffected
// state (peers, prefixes, filters not named in the diff) is never
// touched: the apply hooks are in-place, so a reload under full-table
// churn causes zero FIB operations for unaffected prefixes.

// txOrder is the deterministic participant order: infrastructure
// processes validate and commit before protocols so a protocol's
// changes land on an already-updated RIB/FEA.
var txOrder = [...]string{"fea", "rib", "bgp", "rip", "ospf"}

// TxHooks are fault-injection points for the transaction coordinator
// (tests and chaos runs): AfterValidate runs between the phases,
// BetweenCommits immediately before each participant's commit_tx.
type TxHooks struct {
	AfterValidate  func()
	BetweenCommits func(class string)
}

// SetTxHooks installs fault-injection hooks (nil fields are skipped).
func (r *Router) SetTxHooks(h TxHooks) {
	r.txMu.Lock()
	r.txHooks = h
	r.txMu.Unlock()
}

// Generation returns the running config's generation, bumped on every
// committed reload. validate_tx carries it so agents reject stale
// transactions built against an older tree.
func (r *Router) Generation() uint32 {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.generation
}

// poisonTx marks the open transaction failed because a participant
// process died (supervisor noteDeath / KillProcess call this). The
// coordinator checks between every step and aborts.
func (r *Router) poisonTx(class, reason string) {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	if r.txOpen != 0 && r.txParts[class] {
		r.txPoison = fmt.Sprintf("participant %s %s", class, reason)
	}
}

func (r *Router) txPoisoned() string {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.txPoison
}

func (r *Router) openTx(parts []string) uint32 {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	r.txSeq++
	r.txOpen = r.txSeq
	r.txParts = make(map[string]bool, len(parts))
	for _, p := range parts {
		r.txParts[p] = true
	}
	r.txPoison = ""
	return r.txSeq
}

func (r *Router) closeTx() {
	r.txMu.Lock()
	r.txOpen, r.txParts, r.txPoison = 0, nil, ""
	r.txMu.Unlock()
}

func (r *Router) nextTxID() uint32 {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	r.txSeq++
	return r.txSeq
}

// configPlane lazily builds the coordinator's own XRL router. It hosts
// no target — it only sends config/0.1 calls to the per-process targets
// through the hub, resolving them via the Finder like any client.
func (r *Router) configPlane() *xipc.Router {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	if r.configRouter == nil {
		r.configLoop = r.loopFor()
		r.configRouter = xipc.NewRouter("rtrmgr_config", r.configLoop)
		r.configRouter.AttachHub(r.Hub)
	}
	return r.configRouter
}

// Reload parses a candidate configuration and applies it transactionally
// (see the package comment above). On error the running config — and
// every process's live state — is unchanged.
func (r *Router) Reload(candidateText string) error {
	candidate, err := ParseConfig(candidateText)
	if err != nil {
		return fmt.Errorf("rtrmgr: reload parse: %w", err)
	}
	return r.ReloadTree(candidate)
}

// ReloadTree is Reload for an already-parsed candidate tree.
func (r *Router) ReloadTree(candidate *Node) error {
	running := r.Config
	changes := DiffConfig(running, candidate)
	if len(changes) == 0 {
		return nil
	}
	plan, err := r.compilePlan(changes, running, candidate)
	if err != nil {
		return err
	}
	var parts []string
	for _, class := range txOrder {
		if len(plan[class]) > 0 {
			parts = append(parts, class)
		}
	}
	if len(parts) == 0 {
		// Config-only change (e.g. an unreferenced policy body): no
		// process state to touch, just swap the tree.
		r.swapConfig(candidate)
		return nil
	}

	txID := r.openTx(parts)
	defer r.closeTx()
	gen := r.Generation()

	// Phase 1: every participant validates its slice against live state.
	var validated []string
	for _, class := range parts {
		if reason := r.txPoisoned(); reason != "" {
			r.abortAll(txID, validated)
			return fmt.Errorf("rtrmgr: tx %d aborted during validate: %s", txID, reason)
		}
		ok, reason, err := r.sendValidate(class, txID, gen, plan[class])
		if err != nil {
			r.abortAll(txID, validated)
			return fmt.Errorf("rtrmgr: tx %d: validate %s: %w", txID, class, err)
		}
		if !ok {
			r.abortAll(txID, validated)
			return fmt.Errorf("rtrmgr: tx %d rejected by %s: %s", txID, class, reason)
		}
		validated = append(validated, class)
	}

	if h := r.hooks().AfterValidate; h != nil {
		h()
	}

	// Phase 2: commit in order; a failure rolls back what committed and
	// aborts what didn't.
	var committed []string
	for i, class := range parts {
		if h := r.hooks().BetweenCommits; h != nil {
			h(class)
		}
		if reason := r.txPoisoned(); reason != "" {
			rb := r.rollback(plan, committed)
			r.abortAll(txID, parts[i:])
			return txFailure(txID, fmt.Sprintf("aborted during commit: %s", reason), rb)
		}
		if _, err := r.sendCommit(class, txID); err != nil {
			rb := r.rollback(plan, committed)
			r.abortAll(txID, parts[i+1:])
			return txFailure(txID, fmt.Sprintf("commit %s: %v", class, err), rb)
		}
		committed = append(committed, class)
	}

	r.swapConfig(candidate)
	return nil
}

func (r *Router) hooks() TxHooks {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.txHooks
}

func (r *Router) swapConfig(candidate *Node) {
	r.txMu.Lock()
	r.Config = candidate
	r.generation++
	r.txMu.Unlock()
}

// txFailure folds rollback trouble into the transaction error so a
// partially-successful rollback is never silent.
func txFailure(txID uint32, msg string, rollbackErrs []string) error {
	if len(rollbackErrs) == 0 {
		return fmt.Errorf("rtrmgr: tx %d: %s (rolled back)", txID, msg)
	}
	return fmt.Errorf("rtrmgr: tx %d: %s (rollback incomplete: %s)",
		txID, msg, strings.Join(rollbackErrs, "; "))
}

// rollback undoes already-committed participants: each gets the inverse
// of its slice, in reverse order, as a fresh mini-transaction. Best
// effort — a participant that died mid-transaction cannot be rolled
// back, which is reported, not hidden.
func (r *Router) rollback(plan map[string][]Change, committed []string) []string {
	var errs []string
	for i := len(committed) - 1; i >= 0; i-- {
		class := committed[i]
		fwd := plan[class]
		inv := make([]Change, 0, len(fwd))
		for j := len(fwd) - 1; j >= 0; j-- {
			inv = append(inv, fwd[j].Inverse())
		}
		rbID := r.nextTxID()
		ok, reason, err := r.sendValidate(class, rbID, r.Generation(), inv)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", class, err))
			continue
		}
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: %s", class, reason))
			continue
		}
		if _, err := r.sendCommit(class, rbID); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", class, err))
		}
	}
	return errs
}

// abortAll sends abort_tx to the given participants (idempotent; errors
// ignored — an unreachable participant has no staged state to clear).
func (r *Router) abortAll(txID uint32, classes []string) {
	xr := r.configPlane()
	for _, class := range classes {
		cl := xif.NewConfigClient(xr, class)
		_ = r.txCall(func(finish func()) {
			cl.AbortTx(txID, func(error) { finish() })
		})
	}
}

func (r *Router) sendValidate(class string, txID, gen uint32, cs []Change) (bool, string, error) {
	cl := xif.NewConfigClient(r.configPlane(), class)
	var (
		ok     bool
		reason string
		callE  error
	)
	err := r.txCall(func(finish func()) {
		cl.ValidateTx(txID, gen, EncodeChanges(cs), func(o bool, rsn string, e *xrl.Error) {
			if e != nil {
				callE = e
			} else {
				ok, reason = o, rsn
			}
			finish()
		})
	})
	if err != nil {
		return false, "", err
	}
	return ok, reason, callE
}

func (r *Router) sendCommit(class string, txID uint32) (uint32, error) {
	cl := xif.NewConfigClient(r.configPlane(), class)
	var (
		applied uint32
		callE   error
	)
	err := r.txCall(func(finish func()) {
		cl.CommitTx(txID, func(n uint32, e *xrl.Error) {
			if e != nil {
				callE = e
			} else {
				applied = n
			}
			finish()
		})
	})
	if err != nil {
		return 0, err
	}
	return applied, callE
}

// txDeadline bounds each config XRL round-trip. A participant that
// neither acks nor nacks within the deadline fails the transaction as if
// it had nacked.
const txDeadline = 5 * time.Second

// txCall runs one async config XRL to completion: in simulated mode it
// pumps every loop until the callback fires; in real mode it waits on a
// channel up to txDeadline.
func (r *Router) txCall(send func(finish func())) error {
	if r.simulated() {
		done := false
		send(func() { done = true })
		r.procMu.Lock()
		loops := append([]*eventloop.Loop(nil), r.loops...)
		r.procMu.Unlock()
		for i := 0; !done && i < 20000; i++ {
			for _, l := range loops {
				l.RunPending()
			}
		}
		if !done {
			return fmt.Errorf("config call wedged (simulated loops drained)")
		}
		return nil
	}
	ch := make(chan struct{}, 1)
	send(func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	})
	select {
	case <-ch:
		return nil
	case <-time.After(txDeadline):
		return fmt.Errorf("config call timed out after %v", txDeadline)
	}
}

// --- Plan compilation: route each diff change to its owning process
// class, lifting deep edits to the nearest independently-applicable
// unit and embedding policy bodies where filters must be recompiled.

func (r *Router) compilePlan(changes []Change, running, candidate *Node) (map[string][]Change, error) {
	plan := make(map[string][]Change)
	seen := make(map[string]bool)
	add := func(class string, c Change) {
		key := class + "|" + string(c.Verb) + "|" + c.PathString()
		if seen[key] {
			return
		}
		seen[key] = true
		plan[class] = append(plan[class], c)
	}
	for _, c := range changes {
		if len(c.Path) == 0 {
			continue
		}
		head := c.Path[0]
		switch {
		case head == "interfaces":
			if len(c.Path) > 2 {
				c = liftChange(c, c.Path[:2], running, candidate)
			}
			add("fea", c)
		case head == "static":
			add("rib", c)
		case head == "protocols":
			if len(c.Path) < 2 {
				return nil, fmt.Errorf("rtrmgr: cannot reload the whole protocols block (restart required)")
			}
			class := c.Path[1]
			switch class {
			case "bgp", "rip", "ospf":
			default:
				return nil, fmt.Errorf("rtrmgr: unsupported protocol %q in change %s", class, c.PathString())
			}
			if len(c.Path) == 2 {
				return nil, fmt.Errorf("rtrmgr: adding or removing the %s process requires a restart", class)
			}
			if len(c.Path) > 3 {
				c = liftChange(c, c.Path[:3], running, candidate)
			}
			add(class, embedPolicy(embedPeerGroup(c, running, candidate), running, candidate))
		case head == "policy" || strings.HasPrefix(head, "policy "):
			name := strings.TrimPrefix(head, "policy ")
			for _, cc := range policyRefChanges(name, running, candidate) {
				add(cc.class, cc.change)
			}
		default:
			return nil, fmt.Errorf("rtrmgr: unsupported config section %q (restart required)", head)
		}
	}
	return plan, nil
}

// liftChange replaces a deep edit (e.g. a holdtime leaf inside a BGP
// peer) with a modify of the unit node above it: the unit is what the
// agent knows how to re-apply atomically.
func liftChange(c Change, unitPath []string, running, candidate *Node) Change {
	old := nodeAtPath(running, unitPath)
	new_ := nodeAtPath(candidate, unitPath)
	verb := ChangeModify
	if old == nil {
		verb = ChangeAdd
	}
	if new_ == nil {
		verb = ChangeRemove
	}
	return Change{Verb: verb, Path: append([]string{}, unitPath...), Old: old, New: new_}
}

// nodeAtPath walks root's children matching diff idents.
func nodeAtPath(root *Node, path []string) *Node {
	cur := root
	for _, el := range path {
		var next *Node
		for _, ch := range cur.Children {
			switch el {
			case blockIdent(ch), ch.Key, strings.Join(append([]string{ch.Key}, ch.Args...), " "):
				next = ch
			}
			if next != nil {
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

func blockIdent(n *Node) string {
	if len(n.Children) > 0 && n.Arg(0) != "" {
		return n.Key + " " + n.Arg(0)
	}
	return n.Key
}

// embedPolicy copies the referenced policy body into redistribute/export
// changes: the agent must compile the filter against the *candidate*
// policy (and the inverse against the running one), and the wire change
// is the only context it gets.
func embedPolicy(c Change, running, candidate *Node) Change {
	c.Old = withEmbeddedPolicy(c.Old, running)
	c.New = withEmbeddedPolicy(c.New, candidate)
	return c
}

// embedPeerGroup copies a referenced `peer-group` block into peer
// changes, like embedPolicy does for policies: the agent resolves group
// defaults against the candidate config (and the inverse against the
// running one), and the wire change is the only context it gets.
func embedPeerGroup(c Change, running, candidate *Node) Change {
	c.Old = withEmbeddedPeerGroup(c.Old, running)
	c.New = withEmbeddedPeerGroup(c.New, candidate)
	return c
}

func withEmbeddedPeerGroup(n, cfg *Node) *Node {
	if n == nil || cfg == nil || n.Key != "peer" {
		return n
	}
	group := n.Leaf("group")
	if group == "" {
		return n
	}
	protos := cfg.Child("protocols")
	if protos == nil {
		return n
	}
	bgpCfg := protos.Child("bgp")
	if bgpCfg == nil {
		return n
	}
	grp := findPeerGroup(bgpCfg, group)
	if grp == nil {
		return n
	}
	return &Node{
		Key:      n.Key,
		Args:     append([]string{}, n.Args...),
		Children: append(append([]*Node{}, n.Children...), grp),
	}
}

func withEmbeddedPolicy(n, cfg *Node) *Node {
	if n == nil || cfg == nil {
		return n
	}
	var polName string
	switch n.Key {
	case "redistribute":
		polName = n.Arg(1)
	case "export":
		polName = n.Arg(0)
	default:
		return n
	}
	if polName == "" {
		return n
	}
	pol := findPolicy(cfg, polName)
	if pol == nil {
		return n
	}
	return &Node{
		Key:      n.Key,
		Args:     append([]string{}, n.Args...),
		Children: append(append([]*Node{}, n.Children...), pol),
	}
}

func findPolicy(cfg *Node, name string) *Node {
	for _, p := range cfg.ChildrenNamed("policy") {
		if p.Arg(0) == name {
			return p
		}
	}
	return nil
}

type classChange struct {
	class  string
	change Change
}

// policyRefChanges fans a policy-body edit out to every statement that
// references the policy: each referencing redistribute/export becomes a
// synthetic modify carrying the old and new policy bodies, so the
// owning process recompiles and swaps its filter in place.
func policyRefChanges(name string, running, candidate *Node) []classChange {
	var out []classChange
	cp := candidate.Child("protocols")
	if cp == nil {
		return nil
	}
	for _, class := range []string{"bgp", "ospf"} {
		cn := cp.Child(class)
		if cn == nil {
			continue
		}
		for _, rd := range cn.ChildrenNamed("redistribute") {
			if rd.Arg(1) != name {
				continue
			}
			id := strings.Join(append([]string{rd.Key}, rd.Args...), " ")
			path := []string{"protocols", class, id}
			if nodeAtPath(running, path) == nil {
				continue // newly added: the add change handles it
			}
			out = append(out, classChange{class, embedPolicy(Change{
				Verb: ChangeModify, Path: path, Old: rd, New: rd,
			}, running, candidate)})
		}
		if class == "ospf" {
			if ex := cn.Child("export"); ex != nil && ex.Arg(0) == name {
				path := []string{"protocols", "ospf", "export"}
				if nodeAtPath(running, path) != nil {
					out = append(out, classChange{class, embedPolicy(Change{
						Verb: ChangeModify, Path: path, Old: ex, New: ex,
					}, running, candidate)})
				}
			}
		}
	}
	return out
}
