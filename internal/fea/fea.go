// Package fea implements the Forwarding Engine Abstraction (paper §3):
// the stable API between the control plane and the forwarding plane. The
// FEA owns the router's forwarding table — a fwd.Publisher whose
// published snapshot is the FIB — and applies every write to it as one
// rib.FIBBatch, one snapshot generation per fti call. It also keeps the
// interface list and, as the security framework's network-access relay
// (§7), sends and receives routing protocol packets on behalf of
// sandboxed processes like RIP and OSPF (including multicast group
// membership), so they never need raw network access.
package fea

import (
	"fmt"
	"net/netip"
	"sync"

	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/profiler"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// Interface is one configured network interface.
type Interface struct {
	Name string
	Addr netip.Prefix // interface address with on-link prefix
	MTU  int
	Up   bool
}

// Process is the FEA process.
type Process struct {
	loop  *eventloop.Loop
	pub   *fwd.Publisher // the forwarding table
	batch *rib.FIBBatch  // reused by the fti handlers, which run on loop
	host  *kernel.Host   // attachment to the simulated datagram network

	ifMu   sync.Mutex // the rtrmgr configures interfaces from its own goroutine
	ifaces map[string]Interface

	// udpClients maps bound port -> client target to push received
	// datagrams to (the RIP relay path). Guarded by udpMu: protocols
	// bind from their own loops, and the rtrmgr supervisor unbinds a
	// dead protocol's ports from yet another loop before respawning it.
	udpMu      sync.Mutex
	udpClients map[uint16]string
	router     *xipc.Router
	recvPush   *xif.FEAUDPRecvClient // fea_udp_client/0.1 stub over router

	prof       *profiler.Profiler
	profArrive *profiler.Point // "route_arrive_fea"
	profKernel *profiler.Point // "route_enter_kernel"

	// tracer, when set and enabled, receives the StageFIBApply stamp as
	// each batch is applied.
	tracer *telemetry.Tracer

	metrics  *telemetry.Registry
	mApplies *telemetry.Counter // fea_fib_writes_total
}

// New returns an FEA with an empty forwarding table. host may be nil (no
// packet relay); router enables pushes to UDP clients.
func New(loop *eventloop.Loop, host *kernel.Host, router *xipc.Router) *Process {
	p := &Process{
		loop:       loop,
		pub:        fwd.NewPublisher(),
		batch:      rib.NewFIBBatch(),
		host:       host,
		ifaces:     make(map[string]Interface),
		udpClients: make(map[uint16]string),
		router:     router,
		prof:       profiler.New(loop.Clock()),
	}
	p.profArrive = p.prof.Point("route_arrive_fea")
	p.profKernel = p.prof.Point("route_enter_kernel")
	if router != nil {
		p.recvPush = xif.NewFEAUDPRecvClient(router)
	}

	// Live metrics. The snapshot chain is an atomic load, so every gauge
	// here is safe from any scrape goroutine, not just the process loop.
	p.metrics = telemetry.NewRegistry()
	p.mApplies = p.metrics.Counter("fea_fib_writes_total", "forwarding entries written to the FIB")
	p.metrics.GaugeFunc("fea_fib_entries", "entries installed in the FIB",
		func() float64 { return float64(p.pub.Current().Len()) })
	p.metrics.GaugeFunc("fea_snapshot_gen", "published forwarding snapshot generation",
		func() float64 { return float64(p.pub.Current().Gen()) })
	p.metrics.GaugeFunc("fea_queue_depth", "event-loop input backlog",
		func() float64 { return float64(loop.QueueDepth()) })
	xipc.RegisterIOMetrics(p.metrics)
	return p
}

// Loop returns the process event loop.
func (p *Process) Loop() *eventloop.Loop { return p.loop }

// Profiler returns the process profiler.
func (p *Process) Profiler() *profiler.Profiler { return p.prof }

// Metrics returns the process's live metrics registry.
func (p *Process) Metrics() *telemetry.Registry { return p.metrics }

// SetTracer wires the route-latency tracer: the FEA stamps StageFIBApply
// as a batch is applied, and the publisher stamps StageSnapPub when its
// snapshot is published. Call at assembly time, before routes flow.
func (p *Process) SetTracer(tr *telemetry.Tracer) {
	p.tracer = tr
	p.pub.SetTracer(tr)
}

// Snapshots returns the published-snapshot source forwarding workers
// (and any other data-plane reader) should chase: the FIB itself.
func (p *Process) Snapshots() fwd.Source { return p.pub }

// SetInstallObserver registers a callback for every entry added or
// replaced in the FIB, invoked once its snapshot is published and
// outside the publisher's write lock (nil removes it).
func (p *Process) SetInstallObserver(fn func(route.Entry)) { p.pub.SetInstallObserver(fn) }

// AddInterface configures an interface.
func (p *Process) AddInterface(name string, addr netip.Prefix, mtu int) {
	p.ifMu.Lock()
	p.ifaces[name] = Interface{Name: name, Addr: addr, MTU: mtu, Up: true}
	p.ifMu.Unlock()
}

// Interfaces lists the configured interfaces.
func (p *Process) Interfaces() []Interface {
	p.ifMu.Lock()
	defer p.ifMu.Unlock()
	out := make([]Interface, 0, len(p.ifaces))
	for _, i := range p.ifaces {
		out = append(out, i)
	}
	return out
}

// ApplyBatch writes a forwarding update set to the FIB as one snapshot
// generation, so a forwarding worker sees either the table before the
// batch or after it, never between ("the FEA will unconditionally
// install the route in the kernel", §8.2). Every fti call and every
// in-process RIB push lands here. An entry with an invalid prefix is
// not installed, and a delete of a prefix the FIB does not hold is a
// no-op; either is reported as the returned error without aborting the
// rest of the batch. The profile points are checked before formatting
// so disabled points cost no per-route allocation.
func (p *Process) ApplyBatch(b *rib.FIBBatch) error {
	cur := p.pub.Current()
	check := func(op rib.FIBOp) error {
		switch net := op.Net(); {
		case !net.IsValid():
			return fmt.Errorf("fea: invalid prefix %v", net)
		case op.Kind == rib.FIBOpDelete && !has(cur, net):
			return fmt.Errorf("fea: no FIB entry %v", net)
		}
		return nil
	}
	var err error
	writes := 0
	b.Ops(func(op rib.FIBOp) {
		logOp(p.profArrive, op)
		if e := check(op); e != nil {
			if err == nil {
				err = e
			}
			return
		}
		writes++
	})
	if p.tracer.Enabled() {
		p.tracer.StampBatch(telemetry.StageFIBApply, func(yield func(netip.Prefix)) {
			b.Ops(func(op rib.FIBOp) {
				if op.Kind != rib.FIBOpDelete {
					yield(op.New.Net)
				}
			})
		})
	}
	p.mApplies.Add(uint64(writes))
	p.pub.Apply(b)
	if p.profKernel.Enabled() {
		b.Ops(func(op rib.FIBOp) {
			if check(op) == nil {
				logOp(p.profKernel, op)
			}
		})
	}
	return err
}

// logOp records one profile entry for op when pt is enabled: "add" for
// an add or replace, "delete" for a delete.
func logOp(pt *profiler.Point, op rib.FIBOp) {
	if !pt.Enabled() {
		return
	}
	if op.Kind == rib.FIBOpDelete {
		pt.Logf("delete %v", op.Old.Net)
	} else {
		pt.Logf("add %v", op.New.Net)
	}
}

// has reports whether s holds an entry at exactly net.
func has(s *fwd.Snapshot, net netip.Prefix) bool {
	_, ok := s.Get(net)
	return ok
}

// RIBClient adapts the FEA as the RIB's rib.FIBClient for in-process
// assemblies.
type RIBClient struct{ P *Process }

// FIBApplyBatch implements rib.FIBClient.
func (c RIBClient) FIBApplyBatch(b *rib.FIBBatch) { c.P.ApplyBatch(b) }

// UDPBind binds a relay port on behalf of client; received datagrams are
// pushed to the client target's fea_udp_client/0.1/recv method (or to
// recv directly when non-nil, for in-process protocols).
func (p *Process) UDPBind(port uint16, client string, recv func(src netip.AddrPort, payload []byte)) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	if recv == nil {
		recv = func(src netip.AddrPort, payload []byte) {
			if p.recvPush == nil {
				return
			}
			p.recvPush.Recv(client, src, payload, nil)
		}
	}
	handler := func(src netip.AddrPort, payload []byte) {
		// Handler runs on the sender's goroutine; hop onto our loop.
		p.loop.Dispatch(func() { recv(src, payload) })
	}
	if err := p.host.Bind(port, handler); err != nil {
		return err
	}
	p.udpMu.Lock()
	p.udpClients[port] = client
	p.udpMu.Unlock()
	return nil
}

// UDPUnbind releases every UDP port bound on behalf of client. A
// respawned protocol process re-runs its setup from scratch, so its
// previous incarnation's bindings must be gone or the re-bind fails
// with a duplicate-port error.
func (p *Process) UDPUnbind(client string) {
	if p.host == nil {
		return
	}
	p.udpMu.Lock()
	defer p.udpMu.Unlock()
	for port, c := range p.udpClients {
		if c == client {
			p.host.Unbind(port)
			delete(p.udpClients, port)
		}
	}
}

// UDPJoinGroup subscribes the router to a multicast group on behalf of
// a sandboxed protocol (OSPF's AllSPFRouters hellos); datagrams for the
// group arrive on whatever port the client bound with UDPBind.
func (p *Process) UDPJoinGroup(group netip.Addr) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	return p.host.JoinGroup(group)
}

// UDPLeaveGroup unsubscribes from a multicast group.
func (p *Process) UDPLeaveGroup(group netip.Addr) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	p.host.LeaveGroup(group)
	return nil
}

// UDPSend relays one datagram from srcPort to dst (multicast
// destinations fan out to the group's members).
func (p *Process) UDPSend(srcPort uint16, dst netip.AddrPort, payload []byte) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	p.host.SendTo(srcPort, dst, payload)
	return nil
}

// UDPBroadcast relays a datagram to all on-link neighbours (RIP's
// multicast updates).
func (p *Process) UDPBroadcast(srcPort, dstPort uint16, payload []byte) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	p.host.Broadcast(srcPort, dstPort, payload)
	return nil
}

// feaServer adapts the Process as the typed xif server for fti/0.2,
// ifmgr/0.1 and fea_udp/0.1. Each fti write fills the process's reused
// batch and applies it: one call, one snapshot generation.
type feaServer struct{ p *Process }

func (s feaServer) AddEntry4(e route.Entry) error {
	return s.apply(func(b *rib.FIBBatch) { b.Add(e) })
}

func (s feaServer) DeleteEntry4(net netip.Prefix) error {
	return s.apply(func(b *rib.FIBBatch) { b.Delete(route.Entry{Net: net}) })
}

func (s feaServer) AddEntries4(es []route.Entry) error {
	return s.apply(func(b *rib.FIBBatch) {
		for i := range es {
			b.Add(es[i])
		}
	})
}

func (s feaServer) DeleteEntries4(nets []netip.Prefix) error {
	return s.apply(func(b *rib.FIBBatch) {
		for _, net := range nets {
			b.Delete(route.Entry{Net: net})
		}
	})
}

// apply records one call's writes into the reused batch and applies it.
func (s feaServer) apply(record func(*rib.FIBBatch)) error {
	b := s.p.batch
	b.Reset()
	record(b)
	return s.p.ApplyBatch(b)
}

// LookupEntry4 answers from the published snapshot — the same immutable
// table the forwarding workers read — so an XRL lookup and a concurrent
// data-plane lookup can never disagree.
func (s feaServer) LookupEntry4(addr netip.Addr) (xif.FTILookup, error) {
	e, ok := s.p.pub.Current().Lookup(addr)
	if !ok {
		return xif.FTILookup{}, nil
	}
	return xif.FTILookup{Found: true, Entry: e}, nil
}

func (s feaServer) GetInterfaces() ([]string, error) {
	var out []string
	for _, i := range s.p.Interfaces() {
		out = append(out, fmt.Sprintf("%s %v %d %v", i.Name, i.Addr, i.MTU, i.Up))
	}
	return out, nil
}

func (s feaServer) UDPBind(port uint16, client string) error {
	return s.p.UDPBind(port, client, nil)
}
func (s feaServer) UDPJoinGroup(group netip.Addr) error  { return s.p.UDPJoinGroup(group) }
func (s feaServer) UDPLeaveGroup(group netip.Addr) error { return s.p.UDPLeaveGroup(group) }
func (s feaServer) UDPSend(sport uint16, dst netip.AddrPort, payload []byte) error {
	return s.p.UDPSend(sport, dst, payload)
}
func (s feaServer) UDPBroadcast(sport, dport uint16, payload []byte) error {
	return s.p.UDPBroadcast(sport, dport, payload)
}

// RegisterXRLs exposes fti/0.2 (forwarding table), ifmgr/0.1 (interfaces),
// fea_udp/0.1 (packet relay) and profile/0.1 on target t through their
// spec-checked bindings.
func (p *Process) RegisterXRLs(t *xipc.Target) {
	srv := feaServer{p}
	xif.BindFTI(t, srv)
	xif.BindIfMgr(t, srv)
	xif.BindFEAUDP(t, srv)
	xif.BindStatsRegistry(t, p.metrics.RenderLines, p.metrics.Get)
	p.prof.RegisterXRLs(t)
}
