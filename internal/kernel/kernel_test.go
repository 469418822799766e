package kernel

import (
	"net/netip"
	"sync"
	"testing"
)

func mustA(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestNetworkDelivery(t *testing.T) {
	n := NewNetwork()
	a, err := n.Attach(mustA("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(mustA("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	b.Bind(520, func(src netip.AddrPort, payload []byte) {
		mu.Lock()
		got = append(got, src.String()+":"+string(payload))
		mu.Unlock()
	})
	a.SendTo(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), []byte("hello"))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "10.0.0.1:520:hello" {
		t.Fatalf("got %v", got)
	}
}

func TestNetworkUnknownDestinationDrops(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(mustA("10.0.0.1"))
	// No panic, silent drop like UDP.
	a.SendTo(520, netip.AddrPortFrom(mustA("10.0.0.99"), 520), []byte("x"))
	// Unbound port also drops.
	n.Attach(mustA("10.0.0.2"))
	a.SendTo(520, netip.AddrPortFrom(mustA("10.0.0.2"), 9999), []byte("x"))
}

func TestNetworkBroadcastExcludesSender(t *testing.T) {
	n := NewNetwork()
	hosts := make([]*Host, 4)
	counts := make([]int, 4)
	var mu sync.Mutex
	for i := range hosts {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		h, err := n.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		i := i
		h.Bind(520, func(netip.AddrPort, []byte) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
	}
	hosts[0].Broadcast(520, 520, []byte("all"))
	mu.Lock()
	defer mu.Unlock()
	if counts[0] != 0 {
		t.Fatal("sender received its own broadcast")
	}
	for i := 1; i < 4; i++ {
		if counts[i] != 1 {
			t.Fatalf("host %d got %d datagrams", i, counts[i])
		}
	}
}

func TestNetworkMulticastGroups(t *testing.T) {
	n := NewNetwork()
	group := mustA("224.0.0.5")
	hosts := make([]*Host, 4)
	counts := make([]int, 4)
	var mu sync.Mutex
	for i := range hosts {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		h, err := n.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		i := i
		h.Bind(89, func(netip.AddrPort, []byte) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
	}
	// Hosts 0-2 join; host 3 stays out.
	for i := 0; i < 3; i++ {
		if err := hosts[i].JoinGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	if err := hosts[0].JoinGroup(mustA("10.0.0.9")); err == nil {
		t.Fatal("unicast address accepted as a group")
	}
	hosts[0].SendTo(89, netip.AddrPortFrom(group, 89), []byte("hello"))
	mu.Lock()
	if counts[0] != 0 {
		t.Fatal("sender received its own multicast")
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("members got %v, want one each", counts[:3])
	}
	if counts[3] != 0 {
		t.Fatal("non-member received multicast")
	}
	mu.Unlock()

	// The drop predicate sees the member's concrete address, so links
	// can be shaped for multicast exactly like unicast.
	n.SetDropFunc(func(src, dst netip.AddrPort) bool {
		return dst.Addr() == mustA("10.0.0.2")
	})
	hosts[0].SendTo(89, netip.AddrPortFrom(group, 89), []byte("hello"))
	n.SetDropFunc(nil)
	mu.Lock()
	if counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("after shaped multicast got %v, want host1=1 host2=2", counts[:3])
	}
	mu.Unlock()

	// Leaving and detaching both end delivery.
	hosts[1].LeaveGroup(group)
	n.Detach(mustA("10.0.0.3"))
	hosts[0].SendTo(89, netip.AddrPortFrom(group, 89), []byte("hello"))
	mu.Lock()
	defer mu.Unlock()
	if counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("delivery after leave/detach: %v", counts[:3])
	}
}

func TestNetworkDuplicateAttach(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Attach(mustA("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(mustA("10.0.0.1")); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	n.Detach(mustA("10.0.0.1"))
	if _, err := n.Attach(mustA("10.0.0.1")); err != nil {
		t.Fatalf("reattach after detach: %v", err)
	}
}

func TestNetworkDuplicateBind(t *testing.T) {
	n := NewNetwork()
	h, _ := n.Attach(mustA("10.0.0.1"))
	if err := h.Bind(520, func(netip.AddrPort, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := h.Bind(520, func(netip.AddrPort, []byte) {}); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	h.Unbind(520)
	if err := h.Bind(520, func(netip.AddrPort, []byte) {}); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
}

func TestNetworkDropFunc(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(mustA("10.0.0.1"))
	b, _ := n.Attach(mustA("10.0.0.2"))
	var mu sync.Mutex
	got := 0
	b.Bind(1, func(netip.AddrPort, []byte) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	n.SetDropFunc(func(src, dst netip.AddrPort) bool { return true })
	a.SendTo(1, netip.AddrPortFrom(mustA("10.0.0.2"), 1), []byte("x"))
	n.SetDropFunc(nil)
	a.SendTo(1, netip.AddrPortFrom(mustA("10.0.0.2"), 1), []byte("x"))
	mu.Lock()
	defer mu.Unlock()
	if got != 1 {
		t.Fatalf("got %d datagrams, want 1 (one dropped)", got)
	}
}

func TestNetworkPayloadIsolation(t *testing.T) {
	// The receiver must not observe sender-side mutation of the buffer.
	n := NewNetwork()
	a, _ := n.Attach(mustA("10.0.0.1"))
	b, _ := n.Attach(mustA("10.0.0.2"))
	var mu sync.Mutex
	var rec []byte
	b.Bind(1, func(_ netip.AddrPort, p []byte) {
		mu.Lock()
		rec = p
		mu.Unlock()
	})
	buf := []byte("aaaa")
	a.SendTo(1, netip.AddrPortFrom(mustA("10.0.0.2"), 1), buf)
	buf[0] = 'z'
	mu.Lock()
	defer mu.Unlock()
	if string(rec) != "aaaa" {
		t.Fatalf("receiver saw mutated payload %q", rec)
	}
}
