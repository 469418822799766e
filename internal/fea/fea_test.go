package fea

import (
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/route"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func newFEA(t *testing.T) (*Process, *eventloop.Loop) {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	return New(loop, nil, nil), loop
}

func TestAddDeleteEntry(t *testing.T) {
	p, _ := newFEA(t)
	srv := feaServer{p}
	e := route.Entry{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}
	if err := srv.AddEntry4(e); err != nil {
		t.Fatal(err)
	}
	if p.Snapshots().Current().Len() != 1 {
		t.Fatal("entry not installed")
	}
	if err := srv.DeleteEntry4(e.Net); err != nil {
		t.Fatal(err)
	}
	if err := srv.DeleteEntry4(e.Net); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestAddEntriesOneGeneration: one add_entries4 of N entries is one
// batch, so it installs all N and advances the snapshot by exactly one
// generation; a delete_entries4 of them is one more.
func TestAddEntriesOneGeneration(t *testing.T) {
	p, _ := newFEA(t)
	srv := feaServer{p}
	const n = 64
	es := make([]route.Entry, n)
	nets := make([]netip.Prefix, n)
	for i := range es {
		nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		es[i] = route.Entry{Net: nets[i], NextHop: mustA("192.168.1.254"), IfName: "eth0"}
	}
	gen0 := p.Snapshots().Current().Gen()
	if err := srv.AddEntries4(es); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshots().Current()
	if s.Gen() != gen0+1 || s.Len() != n {
		t.Fatalf("after add_entries4: gen %d (want %d), len %d (want %d)", s.Gen(), gen0+1, s.Len(), n)
	}
	if err := srv.DeleteEntries4(nets); err != nil {
		t.Fatal(err)
	}
	if s := p.Snapshots().Current(); s.Gen() != gen0+2 || s.Len() != 0 {
		t.Fatalf("after delete_entries4: gen %d (want %d), len %d", s.Gen(), gen0+2, s.Len())
	}
}

// TestDeleteAbsentErrors: a delete of a prefix the FIB does not hold is
// reported, alone or inside a batch, and the rest of the batch still
// applies.
func TestDeleteAbsentErrors(t *testing.T) {
	p, _ := newFEA(t)
	srv := feaServer{p}
	if err := srv.DeleteEntry4(mustP("10.0.0.0/8")); err == nil {
		t.Fatal("delete_entry4 of an absent prefix accepted")
	}
	srv.AddEntry4(route.Entry{Net: mustP("10.1.0.0/16"), IfName: "eth0"})
	if err := srv.DeleteEntries4([]netip.Prefix{mustP("10.0.0.0/8"), mustP("10.1.0.0/16")}); err == nil {
		t.Fatal("delete_entries4 with an absent prefix accepted")
	}
	if n := p.Snapshots().Current().Len(); n != 0 {
		t.Fatalf("installed prefix survived the batch: len %d", n)
	}
}

// TestInvalidPrefixRejected: an entry with an invalid prefix is
// reported and never installed, without aborting the rest of the batch.
func TestInvalidPrefixRejected(t *testing.T) {
	p, _ := newFEA(t)
	srv := feaServer{p}
	if err := srv.AddEntry4(route.Entry{IfName: "eth0"}); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	good := route.Entry{Net: mustP("10.0.0.0/8"), IfName: "eth0"}
	if err := srv.AddEntries4([]route.Entry{{IfName: "eth0"}, good}); err == nil {
		t.Fatal("invalid prefix in a batch accepted")
	}
	s := p.Snapshots().Current()
	if _, ok := s.Get(good.Net); !ok || s.Len() != 1 {
		t.Fatalf("snapshot len %d, valid entry installed %v", s.Len(), ok)
	}
	if got, _ := p.Metrics().Get("fea_fib_writes_total"); got != 1 {
		t.Fatalf("fea_fib_writes_total = %v, want 1 (rejected entries are not writes)", got)
	}
}

func TestProfilePointsFire(t *testing.T) {
	p, loop := newFEA(t)
	var enabled bool
	loop.Dispatch(func() {
		p.Profiler().Enable("route_enter_kernel")
		enabled = true
	})
	loop.RunPending()
	if !enabled {
		t.Fatal("loop stuck")
	}
	feaServer{p}.AddEntry4(route.Entry{Net: mustP("10.0.0.0/8"), IfName: "eth0"})
	recs := p.Profiler().Entries("route_enter_kernel")
	if len(recs) != 1 || recs[0].Event != "add 10.0.0.0/8" {
		t.Fatalf("records %v", recs)
	}
}

func TestXRLInterface(t *testing.T) {
	loop := eventloop.New(nil)
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, nil, router)
	p.AddInterface("eth0", mustP("192.168.1.1/24"), 1500)
	target := xipc.NewTarget("fea", "fea")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()

	call := func(s string) (xrl.Args, *xrl.Error) {
		x, err := xrl.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return router.Call(x)
	}
	if _, err := call("finder://fea/fti/0.2/add_entry4?network:ipv4net=10.0.0.0/8&nexthop:ipv4=192.168.1.254&ifname:txt=eth0"); err != nil {
		t.Fatalf("add_entry4: %v", err)
	}
	args, err := call("finder://fea/fti/0.2/lookup_entry4?addr:ipv4=10.1.2.3")
	if err != nil {
		t.Fatalf("lookup_entry4: %v", err)
	}
	if found, _ := args.BoolArg("found"); !found {
		t.Fatal("entry not found via XRL")
	}
	if net, _ := args.NetArg("network"); net != mustP("10.0.0.0/8") {
		t.Fatalf("network %v", net)
	}
	args, err = call("finder://fea/ifmgr/0.1/get_interfaces")
	if err != nil {
		t.Fatal(err)
	}
	ifs, _ := args.ListArg("interfaces")
	if len(ifs) != 1 {
		t.Fatalf("interfaces %v", ifs)
	}
	if _, err := call("finder://fea/fti/0.2/delete_entry4?network:ipv4net=10.0.0.0/8"); err != nil {
		t.Fatalf("delete_entry4: %v", err)
	}
	if _, err := call("finder://fea/fti/0.2/delete_entry4?network:ipv4net=10.0.0.0/8"); err == nil {
		t.Fatal("double delete via XRL accepted")
	}
}

func TestUDPRelayWithoutNetworkFails(t *testing.T) {
	p, _ := newFEA(t)
	if err := p.UDPBind(520, "rip", nil); err == nil {
		t.Fatal("bind without network accepted")
	}
	if err := p.UDPJoinGroup(mustA("224.0.0.5")); err == nil {
		t.Fatal("join without network accepted")
	}
	if err := p.UDPSend(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), nil); err == nil {
		t.Fatal("send without network accepted")
	}
	if err := p.UDPBroadcast(520, 520, nil); err == nil {
		t.Fatal("broadcast without network accepted")
	}
}

func TestUDPRelayRoundTrip(t *testing.T) {
	netw := kernel.NewNetwork()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hostA, _ := netw.Attach(mustA("10.0.0.1"))
	hostB, _ := netw.Attach(mustA("10.0.0.2"))
	feaA := New(loop, hostA, nil)
	feaB := New(loop, hostB, nil)

	var got []byte
	if err := feaB.UDPBind(520, "rip", func(src netip.AddrPort, payload []byte) {
		got = payload
	}); err != nil {
		t.Fatal(err)
	}
	if err := feaA.UDPSend(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), []byte("rip-pkt")); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	if string(got) != "rip-pkt" {
		t.Fatalf("relay got %q", got)
	}
}

func TestUDPMulticastRelay(t *testing.T) {
	// The OSPF path: join a group through the FEA, receive a datagram
	// sent to the group address.
	netw := kernel.NewNetwork()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hostA, _ := netw.Attach(mustA("10.0.0.1"))
	hostB, _ := netw.Attach(mustA("10.0.0.2"))
	feaA := New(loop, hostA, nil)
	feaB := New(loop, hostB, nil)

	group := mustA("224.0.0.5")
	if err := feaB.UDPJoinGroup(group); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := feaB.UDPBind(89, "ospf", func(src netip.AddrPort, payload []byte) {
		got = payload
	}); err != nil {
		t.Fatal(err)
	}
	if err := feaA.UDPSend(89, netip.AddrPortFrom(group, 89), []byte("hello-pkt")); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	if string(got) != "hello-pkt" {
		t.Fatalf("multicast relay got %q", got)
	}
	// After leaving, group traffic stops.
	if err := feaB.UDPLeaveGroup(group); err != nil {
		t.Fatal(err)
	}
	got = nil
	feaA.UDPSend(89, netip.AddrPortFrom(group, 89), []byte("hello-pkt"))
	loop.RunPending()
	if got != nil {
		t.Fatal("received multicast after leaving the group")
	}
}
