// Package kernel simulates what lies underneath the FEA besides the
// forwarding table: a host-local datagram network that carries routing
// protocol packets (RIP, OSPF) between simulated routers, with loss
// injection and multicast groups.
//
// The forwarding table is not here. The FEA's fwd.Publisher is the
// router's only FIB: every FIB write is one rib.FIBBatch published as one
// immutable snapshot, and a route "enters the kernel" (§8.2's profile
// point 8) when its snapshot is published.
//
// Substitution note (DESIGN.md §5): the paper's testbed installed routes
// into the FreeBSD kernel (or Click). The evaluation measures when a
// route *enters the kernel*, not forwarding throughput, so an in-memory
// table preserves the measured code path exactly while keeping the
// reproduction self-contained.
package kernel
