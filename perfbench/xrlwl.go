package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/telemetry"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// xrl: the Figure 9 shape over TCP. A sender keeps window XRLs of args
// u32 arguments in flight to a bench/1.0 sink resolved through the
// finder. The finder and the receiver share an in-process hub, so the
// receiver registers without a socket and the run uses two TCP
// connections: the sender's finder resolution and the XRL stream itself.
// The assembled router only ever makes intra-process XRLs, so this is the
// workload that measures the xrl wire codec and the xipc TCP path.

type xrlConfig struct {
	args, window int
	setups       int
}

var xrlFull = xrlConfig{args: 5, window: 100, setups: 21}

// xrlBed is one finder, receiver and sender, each on its own loop.
type xrlBed struct {
	loops    []*eventloop.Loop
	routers  []*xipc.Router
	send     *xipc.Router
	sendLoop *eventloop.Loop
	recvLoop *eventloop.Loop
	call     xrl.XRL
	handled  atomic.Int64 // calls the sink accepted
}

func (b *xrlBed) stop() {
	for _, r := range b.routers {
		r.Close()
	}
	for _, l := range b.loops {
		l.Stop()
	}
}

func (b *xrlBed) loop() *eventloop.Loop {
	l := eventloop.New(nil)
	b.loops = append(b.loops, l)
	go l.Run()
	return l
}

// buildXRL starts the three parties and makes one call, so the finder
// resolution and the TCP connection are in place before the measurement.
func buildXRL(args xrl.Args) (*xrlBed, error) {
	b := &xrlBed{}
	hub := xipc.NewHub()
	f := finder.New(b.loop())
	f.AttachHub(hub)
	if err := f.ListenTCP("127.0.0.1:0"); err != nil {
		b.stop()
		return nil, err
	}
	b.recvLoop = b.loop()
	recv := xipc.NewRouter("perf_receiver", b.recvLoop)
	b.routers = append(b.routers, recv)
	recv.AttachHub(hub)
	if err := recv.ListenTCP("127.0.0.1:0"); err != nil {
		b.stop()
		return nil, err
	}
	target := xif.NewTarget("perfecho", "perfecho")
	xif.BindBench(target, xif.BenchSinkFunc(func(got xrl.Args) (xrl.Args, error) {
		if len(got) != len(args) {
			return nil, fmt.Errorf("sink: %d arguments, want %d", len(got), len(args))
		}
		for i := range got {
			if !got[i].Equal(args[i]) {
				return nil, fmt.Errorf("sink: argument %d is %v, want %v", i, got[i], args[i])
			}
		}
		b.handled.Add(1)
		return nil, nil
	}))
	recv.AddTarget(target)
	if err := finder.RegisterTargetSync(recv, target, true); err != nil {
		b.stop()
		return nil, err
	}
	b.sendLoop = b.loop()
	b.send = xipc.NewRouter("perf_sender", b.sendLoop)
	b.routers = append(b.routers, b.send)
	b.send.SetFinderTCP(f.TCPAddr())
	b.call = xif.BenchSpec.NewXRL("perfecho", "sink", args...)
	if _, err := b.send.Call(b.call); err != nil {
		b.stop()
		return nil, fmt.Errorf("xrl warm-up call: %v", err)
	}
	return b, nil
}

// xrlRun is one windowed closed-loop measurement.
type xrlRun struct {
	calls, errs int
	elapsed     time.Duration
	lat         latencies
}

// drive keeps window calls in flight until seconds have passed, then
// lets the in-flight calls finish. All its state lives on the sender's
// loop; the result crosses back through the channel.
func (b *xrlBed) drive(window int, seconds float64) xrlRun {
	out := make(chan xrlRun, 1)
	b.sendLoop.Dispatch(func() {
		run := xrlRun{}
		// Send times of the in-flight calls as a ring, oldest at head:
		// one connection to one loop replies in order.
		sent := make([]time.Time, window)
		head, inFlight := 0, 0
		var firing, stopped bool
		var start time.Time
		var fire func()
		onDone := func(_ xrl.Args, err *xrl.Error) {
			now := time.Now()
			run.lat.add(float64(now.Sub(sent[head])) / float64(time.Millisecond))
			head, inFlight = (head+1)%window, inFlight-1
			run.calls++
			if err != nil {
				run.errs++
			}
			fire()
		}
		fire = func() {
			if firing {
				return
			}
			firing = true
			for !stopped && inFlight < window {
				now := time.Now()
				if now.Sub(start).Seconds() >= seconds {
					stopped = true
					break
				}
				sent[(head+inFlight)%window] = now
				inFlight++
				b.send.SendFromLoop(b.call, onDone)
			}
			firing = false
			if stopped && inFlight == 0 {
				run.elapsed = time.Since(start)
				out <- run
			}
		}
		start = time.Now()
		fire()
	})
	return <-out
}

// xrlMeasure is one xrl run with its set-up times and the heap
// allocations (whole process) and transport syscalls made while driving.
type xrlMeasure struct {
	xrlRun
	setups            []float64
	mallocs, syscalls uint64
	handled           int64
}

func measureXRL(cfg xrlConfig, seed int64, seconds float64, obs *observer) (*xrlMeasure, error) {
	rng := rand.New(rand.NewSource(seed))
	args := make(xrl.Args, cfg.args)
	for i := range args {
		args[i] = xrl.U32(fmt.Sprintf("a%d", i), rng.Uint32())
	}
	b, setups, err := setupRepeated(cfg.setups, func() (*xrlBed, error) { return buildXRL(args) })
	if err != nil {
		return nil, err
	}
	defer b.stop()
	io := telemetry.NewRegistry()
	xipc.RegisterIOMetrics(io)
	stop := obs.watch(map[string]*eventloop.Loop{"xrl.sender": b.sendLoop, "xrl.receiver": b.recvLoop},
		[]*telemetry.Registry{io})
	m := &xrlMeasure{setups: setups}
	handled0 := b.handled.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w0, r0 := xipc.IOStats()
	m.xrlRun = b.drive(cfg.window, seconds)
	w1, r1 := xipc.IOStats()
	runtime.ReadMemStats(&ms1)
	stop()
	m.mallocs, m.syscalls = ms1.Mallocs-ms0.Mallocs, (w1-w0)+(r1-r0)
	m.handled = b.handled.Load() - handled0
	return m, nil
}

func runXRL(cfg xrlConfig, seed int64, seconds float64, obs *observer) (*result, error) {
	res := newResult()
	m, err := measureXRL(cfg, seed, seconds, obs)
	if err != nil {
		return nil, err
	}
	res.count(int64(m.calls), int64(m.errs), "xrl: %d of %d calls failed", m.errs, m.calls)
	if m.handled != int64(m.calls-m.errs) {
		res.fail(int64(m.calls), "xrl: sink accepted %d calls, sender saw %d succeed", m.handled, m.calls-m.errs)
	}
	d, err := m.lat.summary()
	if err != nil {
		return nil, err
	}
	rate := float64(m.calls) / m.elapsed.Seconds()
	res.set("setup_s", median(m.setups), "s")
	res.set("ops_per_s", rate, "1/s")
	res.set("p50_ms", d.p50, "ms")
	res.note("xrl: xrl_calls_per_s=%.0f, %d-arg calls, window %d; call latency %v; %.2f allocs and %.3f syscalls per call",
		rate, cfg.args, cfg.window, d, float64(m.mallocs)/float64(m.calls), float64(m.syscalls)/float64(m.calls))
	return res, nil
}
