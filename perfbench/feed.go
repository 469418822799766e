package main

import (
	"net/netip"

	"xorp/internal/bgp"
	"xorp/internal/workload"
)

// fullTable is the paper's backbone table (146,515 routes, §8.2) with its
// prefix-length mix, as workload.GenerateTable draws it from the seed.
type fullTable struct {
	routes []genRoute
	feed   []byte // every route as its own UPDATE, concatenated
}

// genTable draws n routes from seed and frames them one NLRI per UPDATE,
// the worst-case feed shape (no attribute sharing between messages).
func genTable(seed int64, n int) *fullTable {
	t := workload.GenerateTable(seed, n, tableNexthops)
	ft := &fullTable{routes: make([]genRoute, n)}
	for i, p := range t.Prefixes {
		ft.routes[i] = routeOf(p, t.Attrs[i])
		ft.feed = appendUpdate(ft.feed, nil, &ft.routes[i], ft.routes[i].nlri())
	}
	return ft
}

// routeOf converts generated path attributes into the generator's form.
func routeOf(p netip.Prefix, a *bgp.PathAttrs) genRoute {
	r := genRoute{net: p, origin: a.Origin, nextHop: a.NextHop, med: a.MED, hasMED: a.HasMED}
	for _, seg := range a.ASPath {
		r.asPath = append(r.asPath, seg.ASes...)
	}
	return r
}

func (r *genRoute) nlri() []netip.Prefix { return []netip.Prefix{r.net} }

func (t *fullTable) prefixes() []netip.Prefix {
	out := make([]netip.Prefix, len(t.routes))
	for i := range t.routes {
		out[i] = t.routes[i].net
	}
	return out
}
