package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// A span is one call into a layer during the replay: its name, the batch
// it belongs to (every span of one batch shares the id), the span that
// caused it, its start and end, and the heap objects allocated while it
// ran. Spans are recorded by the benchmark around calls into each
// layer's public functions; nothing is added inside the program.
type span struct {
	name          uint8 // index into spanLog.names
	batch, parent int32
	mallocs       int32
	start, end    int64 // ns since the log began
}

// spanLog records spans in memory, nested through a stack of open spans.
//
// Malloc deltas come from runtime/metrics, which counts allocations as
// each P's cache hands out a fresh span of objects, so a single span's
// delta is lumpy (often 0, sometimes a whole cache refill); summed over
// a layer's thousands of spans the error is bounded by the objects left
// in the caches, well under 1% of a full-table replay.
type spanLog struct {
	t0    time.Time
	names []string
	index map[string]uint8
	spans []span
	open  []int32
	base  []int64 // malloc count when each open span began
	smp   []metrics.Sample
}

// newSpanLog preallocates room for n spans, so recording one allocates
// nothing that a span could be charged with.
func newSpanLog(n int) *spanLog {
	return &spanLog{t0: time.Now(), index: map[string]uint8{}, spans: make([]span, 0, n),
		open: make([]int32, 0, 8), base: make([]int64, 0, 8),
		smp: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}}
}

func (l *spanLog) mallocs() int64 {
	metrics.Read(l.smp)
	return int64(l.smp[0].Value.Uint64() + l.smp[1].Value.Uint64())
}

// begin opens a span as a child of the innermost open span.
func (l *spanLog) begin(name string, batch int32) {
	idx, ok := l.index[name]
	if !ok {
		idx = uint8(len(l.names))
		l.names = append(l.names, name)
		l.index[name] = idx
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, int32(len(l.spans)))
	l.spans = append(l.spans, span{name: idx, batch: batch, parent: parent})
	l.base = append(l.base, l.mallocs())
	l.spans[len(l.spans)-1].start = int64(time.Since(l.t0))
}

// end closes the innermost open span.
func (l *spanLog) end() {
	end := int64(time.Since(l.t0))
	m := l.mallocs()
	n := len(l.open) - 1
	s := &l.spans[l.open[n]]
	s.end, s.mallocs = end, int32(m-l.base[n])
	l.open, l.base = l.open[:n], l.base[:n]
}

// call wraps fn in a span.
func (l *spanLog) call(name string, batch int32, fn func()) {
	l.begin(name, batch)
	fn()
	l.end()
}

// layerStat is the self time and self allocations of every span of one
// name: each span's own figures minus those of its direct children.
type layerStat struct {
	calls         int
	selfNs, total int64
	selfMallocs   int64
}

func (l *spanLog) stats() map[string]*layerStat {
	out := map[string]*layerStat{}
	childNs := make([]int64, len(l.spans))
	childMallocs := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
			childMallocs[s.parent] += int64(s.mallocs)
		}
	}
	for i, s := range l.spans {
		st := out[l.names[s.name]]
		if st == nil {
			st = &layerStat{}
			out[l.names[s.name]] = st
		}
		st.calls++
		st.total += s.end - s.start
		st.selfNs += s.end - s.start - childNs[i]
		st.selfMallocs += int64(s.mallocs) - childMallocs[i]
	}
	return out
}

// write saves the spans as gzipped CSV (name,batch,parent,start_ns,
// end_ns,mallocs).
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name,batch,parent,start_ns,end_ns,mallocs")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", l.names[s.name], s.batch, s.parent, s.start, s.end, s.mallocs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
