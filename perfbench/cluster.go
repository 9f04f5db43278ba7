package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"ncache/internal/extfs"
	"ncache/internal/ncache"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/trace"
)

// rep is one set-up and measured window of a workload.
type rep struct {
	setupS   float64
	windowS  float64
	mallocs  uint64
	allocB   uint64
	peakHeap uint64
	sim      simResult
	// lat holds the window's latency samples, which runs pool across
	// sub-seeds.
	lat     [numClasses][]int64
	snap    snapshot // per-layer counters over the window
	tracer  *trace.Summary
	checked uint64
	// retransmits counts RPC and TCP retransmits from cluster start to the
	// window's end.
	retransmits uint64
}

// simResult is everything simulated the window produced. It is a pure
// function of the workload and seed, so reps compare it with ==.
type simResult struct {
	windowNs   int64
	ops        uint64
	bytes      uint64
	failed     uint64
	routeErr   uint64
	writeBytes uint64
	serverBusy int64
	events     uint64
	lat        [numClasses]latStats
}

type latStats struct {
	n        int
	p50, p99 int64
}

type runOpts struct {
	seed uint64
	// traced attaches a tracer; profile, when set, receives a CPU profile
	// of the window.
	traced  bool
	profile string
	// drainCheck verifies every pool drains after the run.
	drainCheck bool
}

// liveHeap reads the heap marked live by the most recent GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runRep builds a fresh cluster, prefills and warms it, measures one
// window, drains, checks and tears it down. A content-check failure returns
// the measured rep along with the error, so its ops are still counted.
func runRep(s spec, o runOpts) (*rep, error) {
	r := &rep{}
	t0 := time.Now()
	cl, err := passthru.NewCluster(s.cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.SetSynthesize(synthesize)
	fmtr, err := extfs.Format(cl.DirectAccess(), 8192)
	if err != nil {
		return nil, err
	}
	names := make([]string, s.files)
	files := make([]*file, s.files)
	for i := range files {
		names[i] = fmt.Sprintf("f%03d", i)
		fs, err := fmtr.AddFile(names[i], s.fileSize, nil)
		if err != nil {
			return nil, err
		}
		nb := fs.Blocks
		files[i] = &file{size: fs.Size, startLBN: fs.StartLBN,
			acked: make([]uint32, nb), issued: make([]uint32, nb), busy: make([]bool, nb)}
	}
	if err := fmtr.Flush(); err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	hosts := len(cl.Clients)
	for i, f := range files {
		c := cl.Clients[i%hosts].NFS
		if f.fh, err = await(cl, c.Lookup, names[i]); err != nil {
			return nil, err
		}
	}
	var route func(h int, fh nfs.FH, done func(*nfs.Client, error))
	var scs []*passthru.ScaleClient
	if s.routed {
		for _, h := range cl.Clients {
			sc, err := cl.NewScaleClient(h)
			if err != nil {
				return nil, err
			}
			scs = append(scs, sc)
		}
		route = func(h int, fh nfs.FH, done func(*nfs.Client, error)) { scs[h].Route(fh, done) }
	} else {
		route = func(h int, _ nfs.FH, done func(*nfs.Client, error)) { done(cl.Clients[h].NFS, nil) }
	}
	d := newLoadGen(s, cl.Eng, files, hosts, o.seed, route)
	if s.dataPct < 100 {
		if d.scratch, err = await(cl, cl.Clients[0].NFS.Mkdir, "scratch"); err != nil {
			return nil, err
		}
	}
	if s.prefill {
		if err := prefill(cl, d); err != nil {
			return nil, err
		}
	}
	if o.traced {
		d.tracer = trace.NewTracer(cl.Eng, s.name)
	}
	d.start()
	if err := cl.Eng.RunFor(s.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setupS = time.Since(t0).Seconds()

	// The window: counters restart here, the host clock and allocation
	// counters bracket exactly the simulated window.
	resetWindow(cl)
	d.tracer.ResetStats()
	before := takeSnapshot(cl, scs)
	ev0 := cl.Eng.RunStats().Events
	d.win.open = true
	win0 := cl.Eng.Now()
	runtime.GC()
	r.peakHeap = liveHeap()
	stopProfile := func() {}
	if o.profile != "" {
		if stopProfile, err = startProfile(o.profile); err != nil {
			return nil, err
		}
		defer stopProfile()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	// Run the window in slices so the live heap is sampled as it evolves;
	// slicing RunFor does not change the event order.
	const slices = 8
	for i := 0; i < slices; i++ {
		if err := cl.Eng.RunUntil(win0.Add(s.window * sim.Duration(i+1) / slices)); err != nil {
			return nil, fmt.Errorf("window: %w", err)
		}
		if h := liveHeap(); h > r.peakHeap {
			r.peakHeap = h
		}
	}
	r.windowS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	stopProfile()
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	d.win.open = false
	after := takeSnapshot(cl, scs)
	r.snap = after.sub(before)
	r.retransmits = after.rpcRetrans + after.tcpRetrans
	r.snap.utilization(cl)
	d.tracer.Freeze()

	res := &r.sim
	res.windowNs = int64(cl.Eng.Now().Sub(win0))
	res.ops, res.bytes, res.failed, res.routeErr = d.win.ops, d.win.bytes, d.win.failed, d.win.routeErr
	res.writeBytes = d.win.writeBytes
	res.events = cl.Eng.RunStats().Events - ev0
	for _, app := range cl.Apps {
		res.serverBusy += int64(app.Node.CPU.Busy())
	}
	for c := range d.win.lat {
		res.lat[c] = percentiles(d.win.lat[c])
	}
	r.lat = d.win.lat
	r.tracer = d.tracer.Summary()

	// Drain: stop issuing, let in-flight work and flushers finish.
	d.stopped = true
	if err := cl.Eng.Run(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if d.bad != nil {
		return r, d.bad
	}
	if d.tracer.AttributionErrors() != 0 {
		return nil, fmt.Errorf("%s: %d trace attribution errors", s.name, d.tracer.AttributionErrors())
	}
	r.checked = d.checked
	if o.drainCheck {
		if err := checkDrained(cl); err != nil {
			return r, err
		}
	}
	if h := liveHeap(); h > r.peakHeap {
		r.peakHeap = h
	}
	return r, nil
}

// resetWindow restarts every utilization window at the current instant.
func resetWindow(cl *passthru.Cluster) {
	for _, n := range allNodes(cl) {
		n.CPU.ResetStats()
		for _, nic := range n.NICs() {
			nic.ResetStats()
		}
	}
	for _, st := range cl.Storages {
		for _, dk := range st.Array.Disks() {
			dk.ResetStats()
		}
	}
}

func allNodes(cl *passthru.Cluster) []*simnet.Node {
	var nodes []*simnet.Node
	for _, a := range cl.Apps {
		nodes = append(nodes, a.Node)
	}
	for _, st := range cl.Storages {
		nodes = append(nodes, st.Node)
	}
	if cl.Control != nil {
		nodes = append(nodes, cl.Control.Node())
	}
	for _, h := range cl.Clients {
		nodes = append(nodes, h.Node)
	}
	return nodes
}

// await runs op (a Client's Lookup or Mkdir) on name in the root directory
// to completion and returns the file handle.
func await(cl *passthru.Cluster, op func(nfs.FH, string, func(nfs.FH, nfs.Attr, error)), name string) (nfs.FH, error) {
	var fh nfs.FH
	var oerr error
	got := false
	op(nfs.RootFH(), name, func(h nfs.FH, _ nfs.Attr, err error) {
		fh, oerr, got = h, err, true
	})
	if err := cl.Eng.Run(); err != nil {
		return fh, err
	}
	if !got {
		return fh, fmt.Errorf("op on %q did not complete", name)
	}
	return fh, oerr
}

// prefill streams every file once in 32 KB reads through the workers'
// routes (content-checked like any read), so the window starts hot.
func prefill(cl *passthru.Cluster, d *loadGen) error {
	const step = 32 * kb
	for i, f := range d.files {
		w := d.workers[(i*d.s.workers)%len(d.workers)]
		for off := uint64(0); off < f.size; off += step {
			n := int(min(step, f.size-off))
			b0, nb := int(off/extfs.BlockSize), n/extfs.BlockSize
			for i := 0; i < nb; i++ {
				w.floor[i] = f.acked[b0+i]
			}
			var rerr error
			d.route(w.host, f.fh, func(c *nfs.Client, err error) {
				if err != nil {
					rerr = err
					return
				}
				c.Read(f.fh, off, n, func(data *netbuf.Chain, _ nfs.Attr, err error) {
					if err != nil {
						rerr = err
						return
					}
					rerr = w.verify(f, data, b0, nb)
					data.Release()
				})
			})
			if err := cl.Eng.Run(); err != nil {
				return err
			}
			if rerr != nil {
				return fmt.Errorf("prefill: %w", rerr)
			}
		}
	}
	return nil
}

// checkDrained flushes every server and drops its clean cache contents.
// Nothing may stay dirty: not the buffer cache, not the WAL, and not
// NCache. A dirty NCache entry left after a full Sync is an acknowledged
// write whose only copy is NCache memory. Then every netbuf pool and RX
// ring in the cluster must be empty.
func checkDrained(cl *passthru.Cluster) error {
	for _, app := range cl.Apps {
		var serr error
		app.Cache.Sync(func(err error) { serr = err })
		if err := cl.Eng.Run(); err != nil {
			return err
		}
		if serr != nil {
			return fmt.Errorf("drain sync %s: %w", app.Node.Name, serr)
		}
	}
	for _, app := range cl.Apps {
		if app.Cache.DirtyBlocks() != 0 || (app.WAL != nil && app.WAL.Depth() != 0) {
			return fmt.Errorf("%s: %d dirty blocks, WAL depth %d after Sync",
				app.Node.Name, app.Cache.DirtyBlocks(), app.WAL.Depth())
		}
		if app.Module != nil {
			app.Module.DropClean()
			if b := app.Module.PinnedBytes(); b != 0 {
				return fmt.Errorf("%s: %d dirty NCache blocks after Sync: acknowledged writes held only in NCache",
					app.Node.Name, b/int64(extfs.BlockSize+ncache.EntryOverheadBytes))
			}
		}
	}
	var errs []error
	for _, n := range allNodes(cl) {
		for _, p := range []*netbuf.Pool{n.RxPool, n.TxPool, n.BlkPool} {
			if got := p.Outstanding(); got != 0 {
				errs = append(errs, fmt.Errorf("pool %s holds %d buffers after the run (owners %v)", p.Name(), got, p.LeakReport()))
			}
			if df := p.DoubleFrees(); df != 0 {
				errs = append(errs, fmt.Errorf("pool %s: %d double frees", p.Name(), df))
			}
		}
		for _, nic := range n.NICs() {
			if got := nic.Ring().Outstanding(); got != 0 {
				errs = append(errs, fmt.Errorf("%s: RX ring holds %d credits after the run", n.Name, got))
			}
		}
	}
	if df := netbuf.GlobalDoubleFrees(); df != 0 {
		errs = append(errs, fmt.Errorf("%d unpooled double frees", df))
	}
	return errors.Join(errs...)
}
