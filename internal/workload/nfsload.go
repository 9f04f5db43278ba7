package workload

import (
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// AccessPattern selects how read offsets advance.
type AccessPattern int

// Patterns for the micro-benchmarks (§5.3).
const (
	// Sequential streams through the file and wraps: with a file much
	// larger than the server caches this is the all-miss workload.
	Sequential AccessPattern = iota + 1
	// HotSet cycles uniformly through a small region: after warm-up every
	// request hits in cache — the all-hit workload.
	HotSet
)

// patState is one issuing stream's private pattern state. A sequential run
// shares a single state across all clients (the classic behaviour); a
// sharded run gives each client its own, so the stream a client draws is
// owned by its node's shard and replays identically for any worker count.
type patState struct {
	rng  *sim.RNG
	next uint64
}

// perClientStates builds the pattern-state table for a load over NFS
// clients (see streamStates).
func perClientStates(clients []*nfs.Client, shared *sim.RNG, base uint64) []*patState {
	return streamStates(len(clients), len(clients) > 0 && clients[0].Node().Eng.Sharded(), shared, base)
}

// streamStates builds the pattern-state table for n issuing streams: one
// state shared by all on a sequential engine, so the stream every committed
// result was drawn from stays bit-identical; per stream on a sharded one,
// with seeds derived from the stream index, independent of execution order,
// so no two shards ever draw from one RNG.
func streamStates(n int, sharded bool, shared *sim.RNG, base uint64) []*patState {
	states := make([]*patState, n)
	if !sharded {
		st := &patState{rng: shared}
		for i := range states {
			states[i] = st
		}
		return states
	}
	for i := range states {
		states[i] = &patState{rng: sim.NewRNG(base ^ uint64(i+1)*0x9e3779b97f4a7c15)}
	}
	return states
}

// spanOn opens a span on the client's own shard (on a sequential engine
// this is the tracer's engine, exactly the old Begin).
func spanOn(t *trace.Tracer, c *nfs.Client, op string) *trace.Span {
	return t.BeginOn(c.Node().Eng, op)
}

// NFSReadLoad is a closed-loop NFS read generator: Concurrency workers per
// client, each issuing the next read as soon as the previous completes
// (the paper adjusts the number of NFS daemons / outstanding requests the
// same way).
type NFSReadLoad struct {
	Clients     []*nfs.Client
	FH          nfs.FH
	FileSize    uint64
	RequestSize int
	Pattern     AccessPattern
	Concurrency int // workers per client
	RNG         *sim.RNG
	// Tracer, when set, opens a span per request. Nil-safe.
	Tracer *trace.Tracer

	tally
	stopped bool
	states  []*patState
}

var _ Load = (*NFSReadLoad)(nil)

// SetTracer installs per-request span tracing.
func (l *NFSReadLoad) SetTracer(t *trace.Tracer) { l.Tracer = t }

// Start implements Load.
func (l *NFSReadLoad) Start() {
	if l.Concurrency <= 0 {
		l.Concurrency = 4
	}
	if l.RNG == nil {
		l.RNG = sim.NewRNG(1)
	}
	l.states = perClientStates(l.Clients, l.RNG, 1)
	for i := range l.Clients {
		for w := 0; w < l.Concurrency; w++ {
			l.issue(i)
		}
	}
}

// Stop implements Load.
func (l *NFSReadLoad) Stop() { l.stopped = true }

// nextOffset advances the access pattern of one issuing stream.
func (l *NFSReadLoad) nextOffset(st *patState) uint64 {
	req := uint64(l.RequestSize)
	span := l.FileSize / req
	if span == 0 {
		span = 1
	}
	var off uint64
	switch l.Pattern {
	case HotSet:
		off = uint64(st.rng.Int63n(int64(span))) * req
	default:
		off = (st.next % span) * req
		st.next++
	}
	return off
}

// issue sends one read and chains the next.
func (l *NFSReadLoad) issue(i int) {
	if l.stopped {
		return
	}
	c := l.Clients[i]
	off := l.nextOffset(l.states[i])
	sp := spanOn(l.Tracer, c, "read")
	c.Read(l.FH, off, l.RequestSize, func(data *netbuf.Chain, _ nfs.Attr, err error) {
		sp.Finish()
		n := 0
		if err == nil {
			n = data.Len()
			data.Release()
		}
		l.finish(n, err)
		l.issue(i)
	})
}

// NFSWriteLoad is a closed-loop NFS write generator.
type NFSWriteLoad struct {
	Clients     []*nfs.Client
	FH          nfs.FH
	FileSize    uint64
	RequestSize int
	Concurrency int
	RNG         *sim.RNG
	// Tracer, when set, opens a span per request. Nil-safe.
	Tracer *trace.Tracer

	tally
	stopped bool
	states  []*patState
}

var _ Load = (*NFSWriteLoad)(nil)

// SetTracer installs per-request span tracing.
func (l *NFSWriteLoad) SetTracer(t *trace.Tracer) { l.Tracer = t }

// Start implements Load.
func (l *NFSWriteLoad) Start() {
	if l.Concurrency <= 0 {
		l.Concurrency = 4
	}
	if l.RNG == nil {
		l.RNG = sim.NewRNG(2)
	}
	l.states = perClientStates(l.Clients, l.RNG, 2)
	for i := range l.Clients {
		for w := 0; w < l.Concurrency; w++ {
			l.issue(i)
		}
	}
}

// Stop implements Load.
func (l *NFSWriteLoad) Stop() { l.stopped = true }

// issue sends one write and chains the next.
func (l *NFSWriteLoad) issue(i int) {
	if l.stopped {
		return
	}
	c := l.Clients[i]
	st := l.states[i]
	req := uint64(l.RequestSize)
	span := l.FileSize / req
	if span == 0 {
		span = 1
	}
	off := (st.next % span) * req
	st.next++
	sp := spanOn(l.Tracer, c, "write")
	c.Write(l.FH, off, junkChain(c, l.RequestSize), func(n int, _ nfs.Attr, err error) {
		sp.Finish()
		l.finish(n, err)
		l.issue(i)
	})
}
