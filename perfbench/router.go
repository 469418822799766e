package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/rtrmgr"
	"xorp/internal/telemetry"
)

// The router under test: one rtrmgr assembly (finder, FEA, RIB, BGP, each
// on its own event loop) with two passive EBGP peerings that the
// benchmark dials over loopback TCP. Loopback accepts every 127/8 source
// address, so binding each session to its own source is what lets the
// router match the connection to its peer block.
const routerConfig = `
interfaces {
    eth0 { address 10.255.0.1/24; }
}
static {
    route 10.1.0.0/24 next-hop 10.255.0.11;
    route 10.1.1.0/24 next-hop 10.255.0.12;
    route 10.1.2.0/24 next-hop 10.255.0.13;
}
protocols {
    bgp {
        local-as 65000
        id 10.255.0.1
        peer feed { local-addr 127.0.0.1; peer-addr 127.0.0.2; as 65001; passive; }
        peer probe { local-addr 127.0.0.1; peer-addr 127.0.0.3; as 65002; passive; }
    }
}
`

// Every address the configuration and the generated BGP routes use lies
// in 10/8, which workload.GenerateTable never draws from, so no table
// prefix can collide with a connected or static route.

// Peer identities matching routerConfig.
var (
	feedAddr  = netip.MustParseAddr("127.0.0.2")
	probeAddr = netip.MustParseAddr("127.0.0.3")
)

const (
	feedAS  = 65001
	probeAS = 65002
	localAS = 65000
	// baseRoutes is what the snapshot holds before any BGP route: the
	// eth0 connected route and the three static covers of the BGP
	// nexthops.
	baseRoutes = 4
)

// tableNexthops are the BGP nexthops the generated tables use. Each
// resolves through its own static cover to its own gateway, and the RIB
// installs the resolved gateway, so the snapshot shows which of the three
// a route was last given.
var tableNexthops = []netip.Addr{
	netip.MustParseAddr("10.1.0.1"),
	netip.MustParseAddr("10.1.1.1"),
	netip.MustParseAddr("10.1.2.1"),
}

// gateways maps each BGP nexthop to the forwarding nexthop it resolves to.
var gateways = map[netip.Addr]netip.Addr{
	tableNexthops[0]: netip.MustParseAddr("10.255.0.11"),
	tableNexthops[1]: netip.MustParseAddr("10.255.0.12"),
	tableNexthops[2]: netip.MustParseAddr("10.255.0.13"),
}

// testbed is one assembled, started router.
type testbed struct {
	r   *rtrmgr.Router
	src fwd.Source
}

// assemble builds and starts a router and waits until its snapshot holds
// the connected and static routes.
func assemble() (*testbed, error) {
	r, err := rtrmgr.NewRouter(routerConfig, rtrmgr.Options{BGPListen: "127.0.0.1:0"})
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	if err := r.Start(); err != nil {
		r.Stop()
		return nil, fmt.Errorf("start: %w", err)
	}
	tb := &testbed{r: r, src: r.FEA.Snapshots()}
	if err := waitFor(10*time.Second, func() bool { return tb.src.Current().Len() == baseRoutes }); err != nil {
		tb.stop()
		return nil, fmt.Errorf("base routes: %w", err)
	}
	return tb, nil
}

func (tb *testbed) stop() { tb.r.Stop() }

// loops names the process loops a traced run probes.
func (tb *testbed) loops() map[string]*eventloop.Loop {
	return map[string]*eventloop.Loop{"bgp": tb.r.BGP.Loop(), "rib": tb.r.RIB.Loop(), "fea": tb.r.FEA.Loop()}
}

// registries are the processes' live metrics a traced run scrapes.
func (tb *testbed) registries() []*telemetry.Registry {
	return []*telemetry.Registry{tb.r.BGP.Metrics(), tb.r.RIB.Metrics(), tb.r.FEA.Metrics()}
}

// peerState reads a peering's FSM state on the BGP process loop.
func (tb *testbed) peerState(name string) bgp.PeerState {
	st := bgp.StateIdle
	tb.r.BGP.Loop().DispatchAndWait(func() {
		if p, ok := tb.r.BGP.Peer(name); ok {
			st = p.State()
		}
	})
	return st
}

// pollInterval is the sleep between polls of a long wait on router
// state. A sleep shorter than a millisecond lasts about a millisecond
// once every goroutine is parked (the runtime's poller waits in whole
// milliseconds), so waits that must resolve finer than that spin.
const pollInterval = time.Millisecond

// spinFor is how long a wait spins, yielding the processor between
// polls, before it falls back to sleeping: set-up steps that take well
// under a millisecond are timed to the microsecond, and a long wait
// does not take a processor from the router.
const spinFor = 2 * time.Millisecond

var errTimeout = errors.New("timed out")

// lenAt is one observed snapshot size.
type lenAt struct {
	at time.Time
	n  int
}

// stallLimit is how long a snapshot may stop changing before a wait for
// it gives up: far beyond any pause of a healthy router.
const stallLimit = 10 * time.Second

// watchLen polls the snapshot until it holds want entries, recording
// every size change after from, the size at the start. It gives up when
// the size stops changing. A millisecond between polls is fine against
// loads and flushes that take seconds.
func watchLen(src fwd.Source, from lenAt, want int) ([]lenAt, error) {
	series := []lenAt{from}
	for {
		n := src.Current().Len()
		now := time.Now()
		if n != series[len(series)-1].n {
			series = append(series, lenAt{now, n})
		}
		if n == want {
			return series, nil
		}
		if now.Sub(series[len(series)-1].at) > stallLimit {
			return series, fmt.Errorf("snapshot stuck at %d entries, want %d", n, want)
		}
		time.Sleep(pollInterval)
	}
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	start := time.Now()
	for !cond() {
		switch waited := time.Since(start); {
		case waited > timeout:
			return errTimeout
		case waited < spinFor:
			runtime.Gosched()
		default:
			time.Sleep(pollInterval)
		}
	}
	return nil
}

// holdTime is the hold time the benchmark's sessions propose (seconds),
// the router's default.
const holdTime = 90

// session is the benchmark's end of one BGP peering.
type session struct {
	conn   *net.TCPConn
	wmu    sync.Mutex
	done   chan struct{} // reader exited
	stopKA chan struct{}
	kaDone chan struct{} // keepalive sender exited
	readMu sync.Mutex
	rerr   error
}

// openSession dials the router from local, runs the OPEN/KEEPALIVE
// exchange, waits until the router reports the peering Established and
// then hands every UPDATE the router sends to onUpdate (on the reader
// goroutine, with a buffer reused after the call returns).
func openSession(tb *testbed, peer string, local netip.Addr, as uint16, onUpdate func(msg []byte)) (*session, error) {
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: local.AsSlice()}, Timeout: 10 * time.Second}
	c, err := d.Dial("tcp", tb.r.BGP.ListenAddr())
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", peer, err)
	}
	s := &session{conn: c.(*net.TCPConn), done: make(chan struct{}),
		stopKA: make(chan struct{}), kaDone: make(chan struct{})}
	hello := appendKeepalive(appendOpen(nil, as, holdTime, local))
	if _, err := s.conn.Write(hello); err != nil {
		s.conn.Close()
		return nil, fmt.Errorf("%s: send OPEN: %w", peer, err)
	}
	rd := bufio.NewReaderSize(s.conn, 64<<10)
	for _, want := range []uint8{msgOpen, msgKeepalive} {
		typ, _, err := readMsg(rd, nil)
		if err != nil || typ != want {
			s.conn.Close()
			return nil, fmt.Errorf("%s: handshake got type %d (%v), want %d", peer, typ, err, want)
		}
	}
	if err := waitFor(10*time.Second, func() bool { return tb.peerState(peer) == bgp.StateEstablished }); err != nil {
		s.conn.Close()
		return nil, fmt.Errorf("%s: not established: %w", peer, err)
	}
	go s.readLoop(rd, onUpdate)
	go s.keepaliveLoop()
	return s, nil
}

// keepaliveLoop keeps the router's hold timer from expiring while the
// session is idle.
func (s *session) keepaliveLoop() {
	defer close(s.kaDone)
	t := time.NewTicker(holdTime * time.Second / 3)
	defer t.Stop()
	ka := appendKeepalive(nil)
	for {
		select {
		case <-s.stopKA:
			return
		case <-t.C:
			if s.write(ka) != nil {
				return
			}
		}
	}
}

func (s *session) readLoop(rd *bufio.Reader, onUpdate func([]byte)) {
	defer close(s.done)
	buf := make([]byte, maxMsgLen)
	for {
		typ, msg, err := readMsg(rd, buf)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.readMu.Lock()
				s.rerr = err
				s.readMu.Unlock()
			}
			return
		}
		if typ == msgUpdate && onUpdate != nil {
			onUpdate(msg)
		}
	}
}

// write sends pre-framed messages; safe from several goroutines.
func (s *session) write(b []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, err := s.conn.Write(b)
	return err
}

// close tears the TCP connection down (the router sees a peer-down) and
// waits for the reader to exit. It reports a read error other than the
// close itself, such as a NOTIFICATION-triggered reset.
func (s *session) close() error {
	select {
	case <-s.stopKA:
	default:
		close(s.stopKA)
	}
	<-s.kaDone
	s.conn.Close()
	<-s.done
	s.readMu.Lock()
	defer s.readMu.Unlock()
	return s.rerr
}
