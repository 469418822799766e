package bgp

// Tests for per-peer output branches that exist only while their peer has
// a session: an idle branch does no work, and Established dumps the
// decision process's current winners into it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

// memConn is an in-memory MsgConn that records every message the peer
// writes.
type memConn struct {
	msgs [][]byte
}

func (c *memConn) WriteMsg(m []byte) error {
	c.msgs = append(c.msgs, append([]byte(nil), m...))
	return nil
}

func (c *memConn) Close() error { return nil }
func (c *memConn) Backlog() int { return 0 }

// updateAtoms atomizes the UPDATEs among msgs[from:to].
func (c *memConn) updateAtoms(t testing.TB, from, to int) [][]byte {
	var atoms [][]byte
	for _, m := range c.msgs[from:to] {
		if _, typ, _ := HeaderInfo(m); typ == MsgUpdate {
			atoms = append(atoms, atomizeBytes(t, m)...)
		}
	}
	return atoms
}

// establishOver drives a passive peer's FSM to Established over conn, the
// remote side answering OPEN and KEEPALIVE as a conforming speaker would.
func establishOver(t testing.TB, peer *Peer, conn MsgConn) {
	t.Helper()
	peer.Enable()
	peer.AdoptIncoming(conn)
	gen := peer.connGen
	peer.handleMessage(gen, &Message{Open: &OpenMsg{
		Version: Version, AS: peer.cfg.PeerAS, HoldTime: 90, BGPID: peer.cfg.PeerAddr,
	}})
	peer.handleMessage(gen, &Message{Keepalive: true})
	if peer.State() != StateEstablished {
		t.Fatalf("peer %s in %v, want Established", peer.cfg.Name, peer.State())
	}
}

// atomState replays a one-prefix atom stream into the final announced
// atom per prefix.
func atomState(t testing.TB, atoms [][]byte) map[netip.Prefix][]byte {
	state := make(map[netip.Prefix][]byte)
	for _, a := range atoms {
		m, err := DecodeMessage(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range m.Update.Withdrawn {
			delete(state, w)
		}
		for _, n := range m.Update.NLRI {
			state[n] = a
		}
	}
	return state
}

// TestEstablishDumpMatchesLiveBranch is the dump oracle. A bgp.Process
// runs the randomized multi-peer workload; an observer peer establishes
// at a random step, while fanout entries are still queued and a peer that
// just went down still has its table in a deletion stage. A stage-level
// branch with the observer's export filters, live from the start, is the
// reference: the dump must announce exactly the reference's adj-RIB-out
// at that step, and from then on the observer must receive exactly the
// reference's message stream — nothing queued before the establish may
// arrive on top of the dump.
func TestEstablishDumpMatchesLiveBranch(t *testing.T) {
	const localAS = 65000
	localAddr := mustA("192.0.2.1")
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(2000 + trial)))
			peers, events := buildWorkload(r, 300)
			loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
			proc := NewProcess(loop, Config{AS: localAS, BGPID: localAddr}, nil, nil)
			for _, p := range peers {
				if _, err := proc.AddPeer(PeerConfig{
					Name: p.name, LocalAddr: localAddr, PeerAddr: mustA(p.addr), PeerAS: p.as, Passive: true,
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Odd trials observe over IBGP, so the IBGP rule screens the dump.
			obsAS, export := uint16(65100), FilterEBGPExport(localAS, localAddr)
			if trial%2 == 1 {
				obsAS, export = localAS, FilterIBGPExport()
			}
			obs, err := proc.AddPeer(PeerConfig{
				Name: "obs", LocalAddr: localAddr, PeerAddr: mustA("10.9.9.9"), PeerAS: obsAS, Passive: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var refAtoms [][]byte
			refOut := NewPeerOut(obs.handle, UpdateSenderFunc(func(u *UpdateMsg) {
				refAtoms = append(refAtoms, atomizeMsg(t, u)...)
			}))
			refBank := NewFilterBank("out-filter(ref)", export)
			Plumb(refBank, refOut)
			proc.fanout.AddPeerBranch("ref", obs.handle, refBank)

			at := r.Intn(len(events))
			down := peers[r.Intn(len(peers))].name
			conn := &memConn{}
			var refMark, dumpEnd int
			for i, ev := range events {
				if err := proc.InjectUpdate(ev.peer, ev.msg()); err != nil {
					t.Fatal(err)
				}
				if i != at {
					loop.RunPending()
					continue
				}
				// Leave this step's fanout entries queued, hand the down
				// peer's table to a deletion stage that has not run yet,
				// and bring the reference up to date with the queue.
				proc.peers[down].peerin.PeerDown()
				proc.fanout.branches["ref"].reader.Pump()
				if n := obs.peerout.AnnouncedCount(); n != 0 {
					t.Fatalf("idle observer holds %d routes", n)
				}
				refMark = len(refAtoms)
				establishOver(t, obs, conn)
				dumpEnd = len(conn.msgs)
				loop.RunPending()
			}

			// The dump: one announcement per prefix of the reference's
			// adj-RIB-out at the establish.
			want := atomState(t, refAtoms[:refMark])
			dump := conn.updateAtoms(t, 0, dumpEnd)
			got := atomState(t, dump)
			if len(dump) != len(got) {
				t.Errorf("dump sent %d atoms for %d prefixes", len(dump), len(got))
			}
			if len(got) != len(want) {
				t.Errorf("dump announced %d prefixes, reference held %d", len(got), len(want))
			}
			for net, w := range want {
				if !bytes.Equal(got[net], w) {
					t.Errorf("dump of %v differs from the reference", net)
				}
			}
			for _, a := range dump {
				if m, _ := DecodeMessage(a); len(m.Update.Withdrawn) != 0 {
					t.Fatalf("dump contains a withdrawal %v", m.Update.Withdrawn)
				}
			}

			// After the dump: exactly the reference's stream.
			compareAtomStreams(t, "obs", refAtoms[refMark:], conn.updateAtoms(t, dumpEnd, len(conn.msgs)))

			// The final adj-RIB-outs agree.
			if len(obs.peerout.announced) != len(refOut.announced) {
				t.Fatalf("adj-RIB-out: observer %d routes, reference %d",
					len(obs.peerout.announced), len(refOut.announced))
			}
			for net, rr := range refOut.announced {
				or, ok := obs.peerout.announced[net]
				if !ok || !or.Attrs.Equal(rr.Attrs) || or.Src != rr.Src {
					t.Errorf("adj-RIB-out %v: observer %+v, reference %+v", net, or, rr)
				}
			}
			if len(refOut.announced) == 0 {
				t.Error("reference adj-RIB-out empty: the workload exercised nothing")
			}
		})
	}
}

// TestIdlePeerCostsNothing: a configured peer without a session has an
// idle output branch. A route feed on another peer leaves its adj-RIB-out
// empty and costs no allocation beyond what the same process without it
// pays.
func TestIdlePeerCostsNothing(t *testing.T) {
	const n = 512
	localAddr := mustA("192.0.2.1")
	var nets []netip.Prefix
	for i := 0; i < n; i++ {
		nets = append(nets, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24))
	}
	build := func(withIdle bool) (*Process, *eventloop.Loop, *Peer) {
		loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
		proc := NewProcess(loop, Config{AS: 65000, BGPID: localAddr}, nil, nil)
		if _, err := proc.AddPeer(PeerConfig{
			Name: "feed", LocalAddr: localAddr, PeerAddr: mustA("10.0.0.1"), PeerAS: 65001, Passive: true,
		}); err != nil {
			t.Fatal(err)
		}
		var idle *Peer
		if withIdle {
			var err error
			idle, err = proc.AddPeer(PeerConfig{
				Name: "idle", LocalAddr: localAddr, PeerAddr: mustA("10.0.0.2"), PeerAS: 65002, Passive: true,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return proc, loop, idle
	}
	cycle := func(proc *Process, loop *eventloop.Loop) func() {
		return func() {
			proc.InjectUpdate("feed", &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: nets})
			loop.RunPending()
			proc.InjectUpdate("feed", &UpdateMsg{Withdrawn: nets})
			loop.RunPending()
		}
	}

	proc, loop, idle := build(true)
	proc.InjectUpdate("feed", &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: nets})
	loop.RunPending()
	if got := idle.peerout.AnnouncedCount(); got != 0 {
		t.Fatalf("idle peer's adj-RIB-out holds %d of %d routes", got, n)
	}
	proc.InjectUpdate("feed", &UpdateMsg{Withdrawn: nets})
	loop.RunPending()

	with := testing.AllocsPerRun(20, cycle(proc, loop)) / n
	base, baseLoop, _ := build(false)
	without := testing.AllocsPerRun(20, cycle(base, baseLoop)) / n
	t.Logf("allocs/route: %.3f with an idle peer, %.3f without", with, without)
	if with > without {
		t.Errorf("an idle peer costs %.3f allocs/route more", with-without)
	}
}
