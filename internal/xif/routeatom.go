package xif

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"xorp/internal/route"
	"xorp/internal/xrl"
)

// The add_routes4 / delete_routes4 / add_entries4 XRLs carry a whole run
// of routes in one message, so a protocol dumping a table (or the BGP
// feed during a full-table load) pays the IPC fixed cost once per run
// instead of once per route. Each route rides in a list as a text atom;
// this file owns that encoding, shared by the RIB/FEA-side handlers and
// every typed client stub.

// EncodeRouteAtom renders e as an add_routes4 list item:
// "net nexthop metric ifname", with "-" marking an absent nexthop or
// interface name.
func EncodeRouteAtom(e route.Entry) xrl.Atom {
	nh := "-"
	if e.NextHop.IsValid() {
		nh = e.NextHop.String()
	}
	ifn := e.IfName
	if ifn == "" {
		ifn = "-"
	}
	var sb strings.Builder
	sb.Grow(len(ifn) + len(nh) + 32)
	sb.WriteString(e.Net.String())
	sb.WriteByte(' ')
	sb.WriteString(nh)
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatUint(uint64(e.Metric), 10))
	sb.WriteByte(' ')
	sb.WriteString(ifn)
	return xrl.Text("", sb.String())
}

// DecodeRouteAtom parses an add_routes4 list item back into an Entry.
func DecodeRouteAtom(a xrl.Atom) (route.Entry, error) {
	var e route.Entry
	fields := strings.Fields(a.TextVal)
	if len(fields) != 4 {
		return e, fmt.Errorf("xif: malformed route atom %q", a.TextVal)
	}
	net, err := netip.ParsePrefix(fields[0])
	if err != nil {
		return e, fmt.Errorf("xif: route atom net: %v", err)
	}
	e.Net = net
	if fields[1] != "-" {
		nh, err := netip.ParseAddr(fields[1])
		if err != nil {
			return e, fmt.Errorf("xif: route atom nexthop: %v", err)
		}
		e.NextHop = nh
	}
	metric, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return e, fmt.Errorf("xif: route atom metric: %v", err)
	}
	e.Metric = uint32(metric)
	if fields[3] != "-" {
		e.IfName = fields[3]
	}
	return e, nil
}

// EncodeRouteAtoms encodes a batch of entries as list items.
func EncodeRouteAtoms(es []route.Entry) []xrl.Atom {
	items := make([]xrl.Atom, len(es))
	for i := range es {
		items[i] = EncodeRouteAtom(es[i])
	}
	return items
}

// EncodeNetAtom encodes one prefix as a delete_routes4 /
// delete_entries4 list item (bare prefix text).
func EncodeNetAtom(net netip.Prefix) xrl.Atom {
	return xrl.Text("", net.String())
}

// EncodeNetAtoms encodes a batch of prefixes with EncodeNetAtom.
func EncodeNetAtoms(nets []netip.Prefix) []xrl.Atom {
	items := make([]xrl.Atom, len(nets))
	for i := range nets {
		items[i] = EncodeNetAtom(nets[i])
	}
	return items
}
