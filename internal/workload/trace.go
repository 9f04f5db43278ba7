package workload

import (
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/sim"
)

// OpKind classifies a trace record.
type OpKind int

// Trace operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpGetattr
)

// TraceOp is one record of a synthetic NFS trace, the format our Active
// Trace Player analogue replays (the paper generates its micro-benchmarks
// "by means of synthetic traces and an Active Trace Player" [20]).
type TraceOp struct {
	Kind OpKind
	Off  uint64
	Len  int
}

// Trace is a replayable operation sequence against one file.
type Trace struct {
	FH  nfs.FH
	Ops []TraceOp
}

// GenSequentialRead builds the all-miss trace: a single streaming pass.
func GenSequentialRead(fh nfs.FH, fileSize uint64, reqSize int) Trace {
	t := Trace{FH: fh}
	for off := uint64(0); off+uint64(reqSize) <= fileSize; off += uint64(reqSize) {
		t.Ops = append(t.Ops, TraceOp{Kind: OpRead, Off: off, Len: reqSize})
	}
	return t
}

// GenHotSet builds the all-hit trace: n random reads within a hot region.
func GenHotSet(fh nfs.FH, hotBytes uint64, reqSize, n int, seed uint64) Trace {
	rng := sim.NewRNG(seed)
	t := Trace{FH: fh}
	span := hotBytes / uint64(reqSize)
	if span == 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		off := uint64(rng.Int63n(int64(span))) * uint64(reqSize)
		t.Ops = append(t.Ops, TraceOp{Kind: OpRead, Off: off, Len: reqSize})
	}
	return t
}

// GenMixed builds a read/write mix trace over the file.
func GenMixed(fh nfs.FH, fileSize uint64, reqSize, n int, writePct int, seed uint64) Trace {
	rng := sim.NewRNG(seed)
	t := Trace{FH: fh}
	span := fileSize / uint64(reqSize)
	if span == 0 {
		span = 1
	}
	for i := 0; i < n; i++ {
		kind := OpRead
		if rng.Intn(100) < writePct {
			kind = OpWrite
		}
		off := uint64(rng.Int63n(int64(span))) * uint64(reqSize)
		t.Ops = append(t.Ops, TraceOp{Kind: kind, Off: off, Len: reqSize})
	}
	return t
}

// TracePlayer replays a trace closed-loop with the given concurrency,
// looping when it reaches the end (so it can drive steady-state windows).
type TracePlayer struct {
	Clients     []*nfs.Client
	Trace       Trace
	Concurrency int
	Loop        bool

	cursor int
	tally
	stopped bool
	// Done fires once when a non-looping replay exhausts the trace and
	// all workers have drained.
	Done     func()
	inFlight int
}

var _ Load = (*TracePlayer)(nil)

// Start implements Load.
func (p *TracePlayer) Start() {
	if p.Concurrency <= 0 {
		p.Concurrency = 4
	}
	for _, c := range p.Clients {
		for w := 0; w < p.Concurrency; w++ {
			p.issue(c)
		}
	}
}

// Stop implements Load.
func (p *TracePlayer) Stop() { p.stopped = true }

// nextOp fetches the next trace record.
func (p *TracePlayer) nextOp() (TraceOp, bool) {
	if len(p.Trace.Ops) == 0 {
		return TraceOp{}, false
	}
	if p.cursor >= len(p.Trace.Ops) {
		if !p.Loop {
			return TraceOp{}, false
		}
		p.cursor = 0
	}
	op := p.Trace.Ops[p.cursor]
	p.cursor++
	return op, true
}

// issue replays one record and chains the next.
func (p *TracePlayer) issue(c *nfs.Client) {
	if p.stopped {
		return
	}
	op, ok := p.nextOp()
	if !ok {
		if p.inFlight == 0 && p.Done != nil {
			done := p.Done
			p.Done = nil
			done()
		}
		return
	}
	p.inFlight++
	finish := func(n int, err error) {
		p.inFlight--
		p.finish(n, err)
		p.issue(c)
	}
	switch op.Kind {
	case OpWrite:
		c.Write(p.Trace.FH, op.Off, junkChain(c, op.Len), func(n int, _ nfs.Attr, err error) {
			finish(n, err)
		})
	case OpGetattr:
		c.Getattr(p.Trace.FH, func(_ nfs.Attr, err error) { finish(0, err) })
	default:
		c.Read(p.Trace.FH, op.Off, op.Len, func(data *netbuf.Chain, _ nfs.Attr, err error) {
			n := 0
			if data != nil {
				n = data.Len()
				data.Release()
			}
			finish(n, err)
		})
	}
}
