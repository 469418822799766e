package bgp

import (
	"bufio"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

// TestStalledPeerResumes: a peer whose reader stalls until its transport
// backlog passes the high-water mark, then resumes reading, must receive
// the UPDATEs sent after it resumes. The backlog sets the peer's fanout
// reader busy; only the transport's drain can clear it, because a busy
// reader sends nothing more.
func TestStalledPeerResumes(t *testing.T) {
	loop := eventloop.New(nil)
	p := NewProcess(loop, Config{AS: 65001, BGPID: mustA("10.0.0.1"), ListenAddr: "127.0.0.1:0"}, nil, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	go loop.Run()
	defer loop.Stop()
	defer loop.DispatchAndWait(p.Close)
	loop.DispatchAndWait(func() {
		p.AddPeer(PeerConfig{
			Name: "x", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"),
			PeerAS: 65002, Passive: true, HoldTime: 90 * time.Second,
		})
		p.EnablePeer("x")
	})

	c, err := netDial(p.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Modest socket buffers on both ends, so the router's own queue
	// soon absorbs the stall.
	c.(*net.TCPConn).SetReadBuffer(64 << 10)
	raw := &rawConn{c: c}
	raw.write(t, AppendOpen(nil, &OpenMsg{Version: 4, AS: 65002, HoldTime: 90, BGPID: mustA("10.0.0.2")}))
	raw.write(t, AppendKeepalive(nil))
	raw.expectType(t, MsgOpen)
	raw.expectType(t, MsgKeepalive)
	var peer *Peer
	waitFor(t, "session established", func() bool {
		var up bool
		loop.DispatchAndWait(func() {
			peer, _ = p.Peer("x")
			up = peer.State() == StateEstablished
		})
		return up
	})
	loop.DispatchAndWait(func() {
		peer.conn.(*tcpMsgConn).c.(*net.TCPConn).SetWriteBuffer(64 << 10)
	})

	// Stall: originate routes, each its own UPDATE (distinct MEDs), until
	// the backlog holds the peer's fanout reader busy. Each check is its
	// own event, so the fanout pump queued by the last chunk has run.
	busy := func() bool {
		var b bool
		loop.DispatchAndWait(func() { b = p.fanout.branches["x"].reader.Busy() })
		return b
	}
	for n := 0; n < 1<<16 && !busy(); {
		loop.DispatchAndWait(func() {
			for end := n + 1024; n < end; n++ {
				net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(n >> 8), byte(n), 0}), 24)
				p.Originate(net, mustA("127.0.0.1"), uint32(n+1))
			}
		})
	}
	if !busy() {
		t.Fatal("the peer's backlog never passed the high-water mark")
	}

	// Resume reading, then send one more route.
	marker := mustP("192.0.2.0/24")
	var mu sync.Mutex
	seen := false
	readerDone := make(chan struct{})
	defer func() {
		c.Close()
		<-readerDone
	}()
	go func() {
		defer close(readerDone)
		rd := bufio.NewReader(c)
		hdr := make([]byte, headerLen)
		for {
			if _, err := io.ReadFull(rd, hdr); err != nil {
				return
			}
			n, typ, err := HeaderInfo(hdr)
			if err != nil {
				return
			}
			body := make([]byte, n)
			copy(body, hdr)
			if _, err := io.ReadFull(rd, body[headerLen:]); err != nil {
				return
			}
			if typ != MsgUpdate {
				continue
			}
			m, err := DecodeMessage(body)
			if err != nil {
				return
			}
			for _, net := range m.Update.NLRI {
				if net == marker {
					mu.Lock()
					seen = true
					mu.Unlock()
				}
			}
		}
	}()
	loop.DispatchAndWait(func() { p.Originate(marker, mustA("127.0.0.1"), 0) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ok := seen
		mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the resumed peer never received the UPDATE sent after it resumed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
