package fwd

import (
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// fwdServer adapts a Pool to the fwd/0.1 typed contract.
type fwdServer struct{ pool *Pool }

func (s fwdServer) FwdGetCounters() (xif.FwdCounters, error) {
	c := s.pool.Counters()
	return xif.FwdCounters{
		Workers:   uint32(s.pool.Workers()),
		Lookups:   c.Lookups,
		Hits:      c.Hits,
		Drops:     c.Drops,
		Gen:       c.Gen,
		LatMeanNs: c.Latency.Mean(),
		LatMaxNs:  c.Latency.Max(),
	}, nil
}

func (s fwdServer) FwdGetWorkerStats() ([]string, error) {
	cs := s.pool.WorkerCounters()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out, nil
}

// RegisterXRLs binds the pool's live counters onto t as fwd/0.1. Safe
// while the workers run: counter reads are atomic samples.
func (p *Pool) RegisterXRLs(t *xipc.Target) {
	xif.BindFwd(t, fwdServer{pool: p})
}
