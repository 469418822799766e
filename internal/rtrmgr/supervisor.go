package rtrmgr

import (
	"fmt"
	"sync"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/ospf"
	"xorp/internal/rip"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// Process supervision: the rtrmgr watches Finder lifetime events for
// the protocol processes it assembled and respawns any that die. XORP's
// rtrmgr restarts crashed processes and re-applies their slice of the
// configuration; combined with the RIB's stale-route retention
// (rib/graceful.go) a protocol crash keeps forwarding intact while the
// replacement process re-learns its routes.
//
// Respawns back off exponentially, and a process that keeps dying in
// quick succession is eventually abandoned with an alarm rather than
// respawned forever — a crash loop burns CPU and churns the RIB without
// converging, so giving up loudly is the safer failure mode.

// SupervisorConfig tunes respawn behaviour.
type SupervisorConfig struct {
	// InitialBackoff is the delay before the first respawn attempt
	// (default 100ms). Doubles per rapid death, capped at MaxBackoff
	// (default 5s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// RapidWindow bounds what counts as a crash loop: a death within
	// this span of the previous one is "rapid" (default 10s). A death
	// after a longer healthy run resets the count and the backoff.
	RapidWindow time.Duration
	// MaxRapidDeaths is how many rapid deaths in a row are tolerated
	// before the supervisor gives up on the class (default 5).
	MaxRapidDeaths int
	// Alarm, if non-nil, is invoked (on the supervisor's loop) when a
	// class is abandoned: the crash loop needs an operator.
	Alarm func(class string, deaths int)
}

func (c *SupervisorConfig) applyDefaults() {
	if c.InitialBackoff <= 0 {
		c.InitialBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff < c.InitialBackoff {
		c.MaxBackoff = 5 * time.Second
		if c.MaxBackoff < c.InitialBackoff {
			c.MaxBackoff = c.InitialBackoff
		}
	}
	if c.RapidWindow <= 0 {
		c.RapidWindow = 10 * time.Second
	}
	if c.MaxRapidDeaths <= 0 {
		c.MaxRapidDeaths = 5
	}
}

// supervised is the per-class respawn state. Counters are guarded by
// Supervisor.mu so tests can read them from other goroutines; the
// scheduling fields (lastDeath, backoff) are only touched on the
// supervisor loop.
type supervised struct {
	respawn func(done func(error))

	lastDeath time.Time
	backoff   time.Duration
	rapid     int // consecutive deaths within RapidWindow

	deaths   int
	respawns int
	givenUp  bool
}

// Supervisor watches protocol process lifetimes and respawns the dead.
type Supervisor struct {
	r      *Router
	loop   *eventloop.Loop
	router *xipc.Router
	cfg    SupervisorConfig

	mu    sync.Mutex
	procs map[string]*supervised
}

// EnableSupervision starts supervising the assembled protocol processes
// (those present in the configuration). The supervisor registers its
// own "rtrmgr" Finder target and watches all lifetime events; protocol
// deaths — real crashes surfaced by liveness probing, or KillProcess in
// chaos tests — trigger a respawn of that process from its config slice.
func (r *Router) EnableSupervision(cfg SupervisorConfig) (*Supervisor, error) {
	cfg.applyDefaults()
	loop := r.loopFor()
	xr := xipc.NewRouter("rtrmgr_process", loop)
	xr.AttachHub(r.Hub)
	tgt := xif.NewTarget("rtrmgr", "rtrmgr")
	xr.AddTarget(tgt)
	if err := r.registerTarget(xr, tgt); err != nil {
		return nil, fmt.Errorf("rtrmgr: register supervisor: %w", err)
	}

	s := &Supervisor{r: r, loop: loop, router: xr, cfg: cfg, procs: make(map[string]*supervised)}
	if protos := r.Config.Child("protocols"); protos != nil {
		if protos.Child("bgp") != nil {
			s.procs["bgp"] = &supervised{respawn: r.respawnBGP}
		}
		if protos.Child("rip") != nil {
			s.procs["rip"] = &supervised{respawn: r.respawnRIP}
		}
		if protos.Child("ospf") != nil {
			s.procs["ospf"] = &supervised{respawn: r.respawnOSPF}
		}
	}
	xr.SetFinderEvent(s.handleEvent)
	if err := r.watch(xr, "rtrmgr", "*"); err != nil {
		return nil, fmt.Errorf("rtrmgr: supervisor watch: %w", err)
	}
	r.sup = s
	return s, nil
}

// Supervisor returns the active supervisor (nil before EnableSupervision).
func (r *Router) Supervisor() *Supervisor { return r.sup }

// Stats reports the supervision counters for a class. Safe from any
// goroutine.
func (s *Supervisor) Stats(class string) (deaths, respawns int, givenUp bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.procs[class]
	if st == nil {
		return 0, 0, false
	}
	return st.deaths, st.respawns, st.givenUp
}

// handleEvent runs on the supervisor's loop for every Finder lifetime
// event ("birth"/"death", class, instance).
func (s *Supervisor) handleEvent(event, class, _ string) {
	if event != "death" {
		return
	}
	s.noteDeath(class)
}

// noteDeath updates crash-loop accounting for class and schedules a
// respawn (or gives up). Runs on the supervisor loop.
func (s *Supervisor) noteDeath(class string) {
	// A participant dying mid-reload poisons the open transaction: the
	// coordinator aborts and rolls back rather than committing onto a
	// respawned (blank-state) process.
	s.r.poisonTx(class, "died (supervisor)")
	s.mu.Lock()
	st := s.procs[class]
	if st == nil || st.givenUp {
		s.mu.Unlock()
		return
	}
	now := s.loop.Now()
	if !st.lastDeath.IsZero() && now.Sub(st.lastDeath) <= s.cfg.RapidWindow {
		st.rapid++
		st.backoff *= 2
		if st.backoff > s.cfg.MaxBackoff {
			st.backoff = s.cfg.MaxBackoff
		}
	} else {
		// A decent healthy run since the last death: fresh slate.
		st.rapid = 1
		st.backoff = s.cfg.InitialBackoff
	}
	st.lastDeath = now
	st.deaths++
	if st.rapid > s.cfg.MaxRapidDeaths {
		st.givenUp = true
		rapid := st.rapid
		s.mu.Unlock()
		if s.cfg.Alarm != nil {
			s.cfg.Alarm(class, rapid)
		}
		return
	}
	backoff := st.backoff
	s.mu.Unlock()
	s.loop.OneShot(backoff, func() { s.respawnNow(class, st) })
}

// respawnNow runs one respawn attempt. A failed attempt (setup error,
// registration failure) counts as another rapid death, so persistent
// failures hit the give-up path instead of retrying forever.
func (s *Supervisor) respawnNow(class string, st *supervised) {
	s.mu.Lock()
	if st.givenUp {
		s.mu.Unlock()
		return
	}
	st.respawns++
	s.mu.Unlock()
	st.respawn(func(err error) {
		if err == nil {
			return
		}
		s.loop.Dispatch(func() { s.noteDeath(class) })
	})
}

// KillProcess simulates a crash of a protocol process (the chaos hook):
// the process is torn down locally — its loop stopped, its XRL router
// detached, its ports unbound — and its Finder registration is dropped,
// so every watcher sees the same death event a real crash would produce
// once liveness probing noticed the silence.
func (r *Router) KillProcess(class string) error {
	var ok bool
	switch class {
	case "bgp":
		ok = r.teardownBGP()
	case "rip":
		ok = r.teardownRIP()
	case "ospf":
		ok = r.teardownOSPF()
	default:
		return fmt.Errorf("rtrmgr: unknown process class %q", class)
	}
	if !ok {
		return fmt.Errorf("rtrmgr: no running %s process", class)
	}
	// Poison any open reload transaction synchronously: the Finder's
	// death broadcast reaches the supervisor too, but the coordinator
	// must see the failure even without supervision enabled.
	r.poisonTx(class, "killed mid-transaction")
	r.unregisterInstance(class)
	return nil
}

// unregisterInstance drops instance from the Finder, broadcasting its
// death. Sent through the FEA's router, which outlives protocol kills.
func (r *Router) unregisterInstance(instance string) {
	if r.simulated() {
		// Completion is observed by driving the loops (SettleAll).
		finder.UnregisterTarget(r.FEARouter, instance, nil)
		return
	}
	ch := make(chan error, 1)
	finder.UnregisterTarget(r.FEARouter, instance, func(e error) { ch <- e })
	<-ch
}

// --- Teardown: the destructive half of a crash or respawn. Each
// teardown publishes nil fields under procMu first (so readers never
// see a half-dead process), then dismantles with locals. Idempotent:
// a second call finds nil fields and reports false.

func (r *Router) teardownBGP() bool {
	r.procMu.Lock()
	p, xr, loop := r.BGP, r.BGPRouter, r.bgpLoop
	redists := r.bgpRedists
	r.BGP, r.BGPRouter, r.bgpLoop, r.bgpTarget, r.bgpRedists = nil, nil, nil, nil, nil
	r.MetricSource = nil
	r.procMu.Unlock()
	if p == nil {
		return false
	}
	// Unsplice redistribution first so the RIB stops feeding the dying
	// process. Then close the XRL router BEFORE the process: a crash
	// must not let the dying BGP's peer-down machinery push withdrawals
	// into the RIB — those routes are exactly what stale retention keeps.
	if len(redists) > 0 {
		r.syncDo(r.RIB.Loop(), func() {
			for _, name := range redists {
				r.RIB.RemoveRedist(name)
			}
		})
	}
	xr.Close()
	r.syncDo(loop, p.Close)
	r.dropLoop(loop)
	return true
}

func (r *Router) teardownRIP() bool {
	r.procMu.Lock()
	p, xr, loop := r.RIP, r.RIPRouter, r.ripLoop
	r.RIP, r.RIPRouter, r.ripLoop, r.ripTarget = nil, nil, nil, nil
	r.procMu.Unlock()
	if p == nil {
		return false
	}
	r.FEA.UDPUnbind("rip") // release the RIP port for the respawn's re-bind
	xr.Close()
	r.syncDo(loop, p.Stop)
	r.dropLoop(loop)
	return true
}

func (r *Router) teardownOSPF() bool {
	r.procMu.Lock()
	p, xr, loop := r.OSPF, r.OSPFRouter, r.ospfLoop
	redists := r.ospfRedists
	r.OSPF, r.OSPFRouter, r.ospfLoop, r.ospfTarget, r.ospfRedists = nil, nil, nil, nil, nil
	r.procMu.Unlock()
	if p == nil {
		return false
	}
	if len(redists) > 0 {
		r.syncDo(r.RIB.Loop(), func() {
			for _, name := range redists {
				r.RIB.RemoveRedist(name)
			}
		})
	}
	r.FEA.UDPUnbind("ospf")
	xr.Close()
	r.syncDo(loop, p.Stop)
	r.dropLoop(loop)
	return true
}

// dropLoop retires a dead process's dedicated loop. The shared loop
// hosts every other process and stays.
func (r *Router) dropLoop(l *eventloop.Loop) {
	if r.opts.SharedLoop || l == nil {
		return
	}
	l.Stop()
	r.procMu.Lock()
	for i, x := range r.loops {
		if x == l {
			r.loops = append(r.loops[:i], r.loops[i+1:]...)
			break
		}
	}
	r.procMu.Unlock()
}

// --- Respawn: teardown (idempotent — KillProcess usually already did
// it), re-run the config slice's setup, re-register with the Finder
// asynchronously, then restart the protocol. The registration callback
// runs on the new process's loop, so the start slice executes in-loop.
// done is called exactly once, possibly from that loop.

func (r *Router) respawnBGP(done func(error)) {
	r.teardownBGP()
	cfg := r.Config.Child("protocols").Child("bgp")
	if err := r.runSetup(func() error { return r.setupBGP(cfg) }); err != nil {
		done(err)
		return
	}
	r.procMu.Lock()
	xr, tgt := r.BGPRouter, r.bgpTarget
	r.procMu.Unlock()
	finder.RegisterTarget(xr, tgt, true, func(err error) {
		if err != nil {
			done(err)
			return
		}
		done(r.startBGPInLoop())
	})
}

func (r *Router) respawnRIP(done func(error)) {
	r.teardownRIP()
	cfg := r.Config.Child("protocols").Child("rip")
	if err := r.runSetup(func() error { return r.setupRIP(cfg) }); err != nil {
		done(err)
		return
	}
	r.procMu.Lock()
	xr, tgt := r.RIPRouter, r.ripTarget
	r.procMu.Unlock()
	finder.RegisterTarget(xr, tgt, true, func(err error) {
		if err != nil {
			done(err)
			return
		}
		done(r.startRIPInLoop())
	})
}

func (r *Router) respawnOSPF(done func(error)) {
	r.teardownOSPF()
	cfg := r.Config.Child("protocols").Child("ospf")
	if err := r.runSetup(func() error { return r.setupOSPF(cfg) }); err != nil {
		done(err)
		return
	}
	r.procMu.Lock()
	xr, tgt := r.OSPFRouter, r.ospfTarget
	r.procMu.Unlock()
	finder.RegisterTarget(xr, tgt, true, func(err error) {
		if err != nil {
			done(err)
			return
		}
		done(r.startOSPFInLoop())
	})
}

// runSetup executes a setup slice from the supervisor loop. The
// respawning flag makes syncDo direct-call when setup already runs on
// the (shared) loop it would otherwise dispatch to.
func (r *Router) runSetup(fn func() error) error {
	r.respawning.Store(true)
	defer r.respawning.Store(false)
	return fn()
}

// startBGPInLoop is Start's BGP slice, run on the BGP loop itself.
func (r *Router) startBGPInLoop() error {
	r.procMu.Lock()
	p := r.BGP
	r.procMu.Unlock()
	if p == nil {
		return nil
	}
	if err := p.Listen(); err != nil {
		return err
	}
	for _, pn := range r.Config.Child("protocols").Child("bgp").ChildrenNamed("peer") {
		name := pn.Arg(0)
		if name == "" {
			name = "peer-" + pn.Leaf("peer-addr")
		}
		p.EnablePeer(name)
	}
	return nil
}

// startRIPInLoop is Start's RIP slice, run on the RIP loop itself.
func (r *Router) startRIPInLoop() error {
	r.procMu.Lock()
	p := r.RIP
	r.procMu.Unlock()
	if p == nil {
		return nil
	}
	return p.Start()
}

// startOSPFInLoop is Start's OSPF slice, run on the OSPF loop itself.
func (r *Router) startOSPFInLoop() error {
	r.procMu.Lock()
	p := r.OSPF
	r.procMu.Unlock()
	if p == nil {
		return nil
	}
	if err := p.Start(); err != nil {
		return err
	}
	for _, ifc := range r.FEA.Interfaces() {
		p.OriginatePrefix(ifc.Addr.Masked(), 1)
	}
	return nil
}

// --- Swappable-field accessors: the supervisor replaces the process
// fields on respawn, so concurrent readers (tests, chaos harnesses)
// must go through procMu.

// CurrentBGP returns the live BGP process, nil while dead.
func (r *Router) CurrentBGP() *bgp.Process {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	return r.BGP
}

// CurrentRIP returns the live RIP process, nil while dead.
func (r *Router) CurrentRIP() *rip.Process {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	return r.RIP
}

// CurrentOSPF returns the live OSPF process, nil while dead.
func (r *Router) CurrentOSPF() *ospf.Process {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	return r.OSPF
}
