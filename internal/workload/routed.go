package workload

import (
	"sync/atomic"

	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// RouteFn answers the NFS client that owns a file handle — the scale-out
// cluster's client-side routing (passthru.ScaleClient.Route matches). done
// may fire synchronously on a route-cache hit.
type RouteFn func(fh nfs.FH, done func(*nfs.Client, error))

// RoutedMixLoad is the scale-out closed-loop workload: many client
// processes, each picking files from a shared set, resolving the owning
// front-end server per operation through its host's routing cache, and
// issuing a read/write mix. Every (worker, step) draws from one seeded RNG
// stream per route, so runs replay bit-for-bit.
type RoutedMixLoad struct {
	// Routes is one routing function per client process.
	Routes []RouteFn
	// Files is the shared working set (handles span every server).
	Files []nfs.FH
	// FileSize bounds request offsets; RequestSize is the read size.
	FileSize    uint64
	RequestSize int
	// WriteSize is the write request size (0 = RequestSize); WritePct is
	// the write percentage of the mix.
	WriteSize int
	WritePct  int
	// Concurrency is the worker count per route (client process).
	Concurrency int
	Seed        uint64
	// Tracer, when set, opens a "read"/"write" span per request. Nil-safe.
	Tracer *trace.Tracer

	rngs []*sim.RNG
	tally
	routeEs atomic.Uint64
	stopped bool
}

var _ Load = (*RoutedMixLoad)(nil)

// SetTracer installs per-request span tracing.
func (l *RoutedMixLoad) SetTracer(t *trace.Tracer) { l.Tracer = t }

// Start implements Load.
func (l *RoutedMixLoad) Start() {
	if l.Concurrency <= 0 {
		l.Concurrency = 4
	}
	if l.WriteSize <= 0 {
		l.WriteSize = l.RequestSize
	}
	l.rngs = make([]*sim.RNG, len(l.Routes))
	for i := range l.Routes {
		l.rngs[i] = sim.NewRNG(l.Seed + uint64(i)*0x9e3779b9)
		for w := 0; w < l.Concurrency; w++ {
			l.issue(i)
		}
	}
}

// Stop implements Load.
func (l *RoutedMixLoad) Stop() { l.stopped = true }

// RouteErrors counts operations that failed at the routing step.
func (l *RoutedMixLoad) RouteErrors() uint64 { return l.routeEs.Load() }

// issue resolves a route and runs one operation, then chains the next.
func (l *RoutedMixLoad) issue(route int) {
	if l.stopped {
		return
	}
	rng := l.rngs[route]
	fh := l.Files[rng.Intn(len(l.Files))]
	isWrite := rng.Intn(100) < l.WritePct
	size := l.RequestSize
	if isWrite {
		size = l.WriteSize
	}
	span := l.FileSize / uint64(size)
	if span == 0 {
		span = 1
	}
	// Align offsets to the request size so writes overwrite whole blocks
	// in place (no read-modify-write tail).
	off := uint64(rng.Int63n(int64(span))) * uint64(size)

	finish := func(n int, err error) {
		l.finish(n, err)
		l.issue(route)
	}
	l.Routes[route](fh, func(c *nfs.Client, err error) {
		if err != nil {
			l.routeEs.Add(1)
			finish(0, err)
			return
		}
		if isWrite {
			sp := spanOn(l.Tracer, c, "write")
			c.Write(fh, off, junkChain(c, size), func(n int, _ nfs.Attr, err error) {
				sp.Finish()
				finish(n, err)
			})
			return
		}
		sp := spanOn(l.Tracer, c, "read")
		c.Read(fh, off, size, func(data *netbuf.Chain, _ nfs.Attr, err error) {
			sp.Finish()
			n := 0
			if data != nil {
				n = data.Len()
				data.Release()
			}
			finish(n, err)
		})
	})
}
