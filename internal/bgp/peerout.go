package bgp

import (
	"net/netip"
)

// UpdateSender consumes the UPDATE messages a PeerOut emits — the peer
// FSM in production, a collector in tests.
type UpdateSender interface {
	SendUpdate(m *UpdateMsg)
}

// UpdateSenderFunc adapts a function to UpdateSender.
type UpdateSenderFunc func(m *UpdateMsg)

// SendUpdate implements UpdateSender.
func (f UpdateSenderFunc) SendUpdate(m *UpdateMsg) { f(m) }

// PeerOut is the terminal stage of one peer's output branch: it turns
// route messages into UPDATE messages for the neighbour. The preceding
// output filter bank has already specialized the routes (EBGP transforms,
// policy), so PeerOut is purely syntactic.
type PeerOut struct {
	base
	peer   *PeerHandle
	sender UpdateSender

	// announced is the adj-RIB-out: what the peer has been told in the
	// current session. Lookup answers from it.
	announced map[netip.Prefix]*Route
}

// NewPeerOut returns the output stage for peer, emitting into sender.
func NewPeerOut(peer *PeerHandle, sender UpdateSender) *PeerOut {
	return &PeerOut{
		base:      base{name: "peerout(" + peer.Name + ")"},
		peer:      peer,
		sender:    sender,
		announced: make(map[netip.Prefix]*Route),
	}
}

// SetSender swaps the message consumer (peer session established).
func (p *PeerOut) SetSender(s UpdateSender) { p.sender = s }

// AnnouncedCount returns how many prefixes the peer currently knows.
func (p *PeerOut) AnnouncedCount() int { return len(p.announced) }

// Add implements Stage.
func (p *PeerOut) Add(r *Route) {
	p.announced[r.Net] = r
	p.send(&UpdateMsg{Attrs: r.Attrs, NLRI: []netip.Prefix{r.Net}})
}

// Replace implements Stage. BGP has implicit withdrawal: announcing a
// prefix again replaces the previous route, so a Replace is one UPDATE.
func (p *PeerOut) Replace(old, new *Route) {
	p.announced[new.Net] = new
	p.send(&UpdateMsg{Attrs: new.Attrs, NLRI: []netip.Prefix{new.Net}})
}

// Delete implements Stage.
func (p *PeerOut) Delete(r *Route) {
	delete(p.announced, r.Net)
	p.send(&UpdateMsg{Withdrawn: []netip.Prefix{r.Net}})
}

func (p *PeerOut) send(m *UpdateMsg) {
	if p.sender != nil {
		p.sender.SendUpdate(m)
	}
}

// Lookup implements Stage: what the peer was told.
func (p *PeerOut) Lookup(net netip.Prefix) *Route { return p.announced[net] }

// drop forgets the adj-RIB-out (the session went away; the next one is
// dumped the table afresh).
func (p *PeerOut) drop() {
	if len(p.announced) > 0 {
		p.announced = make(map[netip.Prefix]*Route)
	}
}
