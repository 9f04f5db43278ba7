package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ncache/internal/extfs"
	"ncache/internal/netbuf"
	"ncache/internal/nfs"
	"ncache/internal/passthru"
	"ncache/internal/sim"
	"ncache/internal/trace"
)

// sized is one entry of a request-size distribution.
type sized struct {
	bytes  int
	weight int
}

// spec describes one workload: the cluster it builds, the file set, and
// the closed-loop operation mix its simulated clients issue.
type spec struct {
	name string
	why  string
	cfg  passthru.ClusterConfig

	files    int
	fileSize uint64
	// prefill streams every file once before the warm-up, so the cache
	// starts hot; the scale-out workloads fill their caches in the warm-up.
	prefill bool
	// routed drives the scale-out cluster through per-host ScaleClients.
	routed bool
	// ungated workloads run on request but are left out of BENCHMARK.json.
	ungated bool
	// hotPct is the share of ops aimed at the first quarter of the files
	// (0 = uniform over the set); the rest pick uniformly from all files.
	hotPct int
	// workers is the closed-loop population per client host.
	workers int
	// dataPct is the share of data ops (the rest are metadata ops in the
	// SFS split, see meta); writePct the share of data ops that are writes.
	dataPct    int
	writePct   int
	readSizes  []sized
	writeSizes []sized

	warmup sim.Duration
	window sim.Duration
}

const kb = 1024

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
var workloads = []spec{
	{
		name: "nfs-read-hit",
		why:  "fig5b all-hit: one NCache server with two NICs is CPU-bound on the per-packet and per-byte path",
		cfg: passthru.ClusterConfig{
			Mode:          passthru.NCache,
			ServerNICs:    2,
			NumClients:    2,
			BlocksPerDisk: 16 * 1024,
			FSCacheBlocks: 8192,
			NCacheBytes:   64 << 20,
		},
		files:     1,
		fileSize:  5 << 20,
		prefill:   true,
		workers:   8,
		dataPct:   100,
		writePct:  0,
		readSizes: []sized{{4 * kb, 1}, {8 * kb, 1}, {16 * kb, 1}, {32 * kb, 1}},
		warmup:    20 * sim.Millisecond,
		window:    2700 * sim.Millisecond,
	},
	{
		// Ungated: every run strands acknowledged writes in NCache and
		// fails the drain check (README.md, Known defects).
		name:    "nfs-write-mirror",
		why:     "write-heavy SFS mix through WAL group commit, the batching flusher and a 2-arm mirror",
		ungated: true,
		cfg: passthru.ClusterConfig{
			Mode:          passthru.NCache,
			ServerNICs:    1,
			NumClients:    2,
			Arms:          2,
			BlocksPerDisk: 8 * 1024,
			FSCacheBlocks: 4096,
			NCacheBytes:   64 << 20,
			Writeback:     passthru.WritebackConfig{Enabled: true},
		},
		files:      32,
		fileSize:   256 * kb,
		prefill:    true,
		workers:    16,
		dataPct:    75,
		writePct:   50,
		readSizes:  sfsSizes,
		writeSizes: sfsSizes,
		warmup:     20 * sim.Millisecond,
		window:     1800 * sim.Millisecond,
	},
	{
		// The routed 4-server, 2-target cluster whose file set is twice the
		// servers' combined FS cache plus NCache, so reads spill to iSCSI
		// and disk. Three quarters of the ops go to a hot quarter of the
		// files, which keeps the median in the cache-hit mode and the p99
		// in the disk-miss mode. NCache is four times the FS cache: with an
		// NCache smaller than the FS cache, evicted entries whose keys the
		// FS cache still holds reach clients as key-stamped junk.
		name: "scaleout-readspill",
		why:  "4 routed servers over 2 targets, file set twice the caches: LBN capture, eviction, iSCSI reads, disk seeks, CP routing",
		cfg: passthru.ClusterConfig{
			Mode:               passthru.NCache,
			ServerNICs:         1,
			NumServers:         4,
			NumTargets:         2,
			NumClients:         8,
			BlocksPerDisk:      16 * 1024,
			FSCacheBlocks:      512,
			NCacheBytes:        8 << 20,
			ClientLinkLatency:  50 * sim.Microsecond,
			ControlLinkLatency: 50 * sim.Microsecond,
		},
		files:     80,
		fileSize:  1 << 20,
		routed:    true,
		hotPct:    75,
		workers:   16,
		dataPct:   100,
		readSizes: []sized{{16 * kb, 1}},
		warmup:    600 * sim.Millisecond,
		window:    2 * sim.Second,
	},
}

// sfsSizes is the SFS request-size distribution of workload.SFSLoad
// (internal/workload/sfsload.go), which does not export it.
var sfsSizes = []sized{{4 * kb, 60}, {8 * kb, 25}, {16 * kb, 10}, {32 * kb, 5}}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fillBlock writes the content of block lbn at version ver: an 8-byte
// version and 8-byte LBN header, then a stream derived from both. Version 0
// is the synthesized content the storage arrays serve for never-written
// blocks; a client write of version v stamps every block it covers with v,
// so a read can tell exactly which write (if any) it observed.
func fillBlock(dst []byte, lbn int64, ver uint32) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(ver))
	binary.LittleEndian.PutUint64(dst[8:], uint64(lbn))
	v := uint64(lbn)*0x9e3779b97f4a7c15 ^ uint64(ver)*0xbf58476d1ce4e5b9
	for i := 16; i+8 <= len(dst); i += 8 {
		v += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[i:], v^v>>29)
	}
}

func synthesize(lbn int64, dst []byte) { fillBlock(dst, lbn, 0) }

// file is one file of the set plus the per-block version state the content
// check reads: acked is the last acknowledged write's version (0 = the
// synthesized content), issued the newest write version sent, and busy
// marks a block with a write in flight (at most one per block, so the
// acknowledged order is the issue order).
type file struct {
	fh       nfs.FH
	size     uint64
	startLBN int64
	acked    []uint32
	issued   []uint32
	busy     []bool
}

// opClass indexes latency samples.
type opClass int

const (
	clsRead opClass = iota
	clsWrite
	clsMeta
	numClasses
)

var classNames = [numClasses]string{"read", "write", "meta"}

// window accumulates what the measured window completes. Only completions
// inside the window count, matching the workload.Runner convention.
type window struct {
	open       bool
	ops        uint64
	bytes      uint64
	writeBytes uint64
	failed     uint64
	routeErr   uint64
	lat        [numClasses][]int64
}

// loadGen is the closed-loop load: every worker waits for its reply before
// issuing again. All state is touched from the one sequential engine.
type loadGen struct {
	s      spec
	eng    *sim.Engine
	files  []*file
	tracer *trace.Tracer
	// route resolves the NFS client serving fh for host h.
	route   func(h int, fh nfs.FH, done func(*nfs.Client, error))
	workers []*worker
	win     window
	stopped bool
	nextVer uint32
	// bad records the first content-check failure; the op also counts as
	// failed.
	bad error
	// checked counts blocks verified against the version model.
	checked uint64
	// scratch is the directory metadata ops probe and churn, apart from
	// the content-checked files; scratchN names its created files.
	scratch  nfs.FH
	scratchN uint64
}

type worker struct {
	d    *loadGen
	host int
	rng  *sim.RNG
	buf  []byte
	want []byte
	// floor holds, per block of the in-flight read, the acknowledged
	// version when the read was issued.
	floor [8]uint32
}

func newLoadGen(s spec, eng *sim.Engine, files []*file, hosts int, seed uint64,
	route func(h int, fh nfs.FH, done func(*nfs.Client, error))) *loadGen {
	d := &loadGen{s: s, eng: eng, files: files, route: route}
	for h := 0; h < hosts; h++ {
		for w := 0; w < s.workers; w++ {
			id := uint64(h*s.workers + w)
			d.workers = append(d.workers, &worker{
				d:    d,
				host: h,
				rng:  sim.NewRNG(seed*0x9e3779b97f4a7c15 + id*0xbf58476d1ce4e5b9 + 1),
				buf:  make([]byte, 32*kb),
				want: make([]byte, extfs.BlockSize),
			})
		}
	}
	return d
}

func (d *loadGen) start() {
	for _, w := range d.workers {
		w.issue()
	}
}

func pick(rng *sim.RNG, dist []sized) int {
	total := 0
	for _, s := range dist {
		total += s.weight
	}
	v := rng.Intn(total)
	for _, s := range dist {
		if v < s.weight {
			return s.bytes
		}
		v -= s.weight
	}
	return dist[0].bytes
}

// done books one completed op of class cls issued at t0.
func (d *loadGen) done(cls opClass, t0 sim.Time, n int, err error) {
	if !d.win.open {
		return
	}
	if err != nil {
		d.win.failed++
		return
	}
	d.win.ops++
	d.win.bytes += uint64(n)
	if cls == clsWrite {
		d.win.writeBytes += uint64(n)
	}
	d.win.lat[cls] = append(d.win.lat[cls], int64(d.eng.Now().Sub(t0)))
}

func (d *loadGen) fail(err error) {
	if d.bad == nil {
		d.bad = err
	}
}

// issue draws the worker's next op from its own RNG stream and sends it.
func (w *worker) issue() {
	d := w.d
	if d.stopped {
		return
	}
	rng := w.rng
	n := len(d.files)
	if rng.Intn(100) < d.s.hotPct {
		n = max(n/4, 1)
	}
	f := d.files[rng.Intn(n)]
	if rng.Intn(100) >= d.s.dataPct {
		w.meta(f, rng.Intn(100))
		return
	}
	write := rng.Intn(100) < d.s.writePct
	size := 0
	if write {
		size = pick(rng, d.s.writeSizes)
	} else {
		size = pick(rng, d.s.readSizes)
	}
	slots := f.size / uint64(size)
	off := uint64(rng.Int63n(int64(slots))) * uint64(size)
	b0, nb := int(off/extfs.BlockSize), size/extfs.BlockSize
	if write {
		for b := b0; b < b0+nb; b++ {
			if f.busy[b] {
				// Another write owns this block: read it instead, which
				// keeps each block's writes acknowledged in issue order.
				write = false
				break
			}
		}
	}
	if write {
		w.write(f, off, b0, nb)
	} else {
		w.read(f, off, b0, nb)
	}
}

func (w *worker) begin(c *nfs.Client, op string) *trace.Span {
	if w.d.tracer == nil {
		return nil
	}
	return w.d.tracer.BeginOn(c.Node().Eng, op)
}

// withRoute resolves the server for fh and runs fn with its client and the
// op's issue time, which is taken before the route lookup.
func (w *worker) withRoute(fh nfs.FH, fn func(c *nfs.Client, t0 sim.Time)) {
	d := w.d
	t0 := d.eng.Now()
	d.route(w.host, fh, func(c *nfs.Client, err error) {
		if err != nil {
			if d.win.open {
				d.win.routeErr++
			}
			d.done(clsMeta, t0, 0, err)
			w.issue()
			return
		}
		fn(c, t0)
	})
}

func (w *worker) read(f *file, off uint64, b0, nb int) {
	d := w.d
	for i := 0; i < nb; i++ {
		w.floor[i] = f.acked[b0+i]
	}
	w.withRoute(f.fh, func(c *nfs.Client, t0 sim.Time) {
		sp := w.begin(c, "read")
		c.Read(f.fh, off, nb*extfs.BlockSize, func(data *netbuf.Chain, _ nfs.Attr, err error) {
			sp.Finish()
			n := 0
			if data != nil {
				n = data.Len()
				if err == nil {
					if err = w.verify(f, data, b0, nb); err != nil {
						d.fail(err)
					}
				}
				data.Release()
			}
			d.done(clsRead, t0, n, err)
			w.issue()
		})
	})
}

// verify checks every block of a read: it must carry the version that was
// acknowledged when the read was issued, or a later write to that block,
// and byte-for-byte the content of that version.
func (w *worker) verify(f *file, data *netbuf.Chain, b0, nb int) error {
	name := w.d.s.name
	if data.Len() != nb*extfs.BlockSize {
		return fmt.Errorf("%s: read of %d blocks returned %d bytes", name, nb, data.Len())
	}
	buf := w.buf[:data.Len()]
	data.Gather(buf)
	for i := 0; i < nb; i++ {
		blk := buf[i*extfs.BlockSize : (i+1)*extfs.BlockSize]
		b := b0 + i
		lbn := f.startLBN + int64(b)
		ver := uint32(binary.LittleEndian.Uint64(blk))
		if ver < w.floor[i] || ver > f.issued[b] {
			return fmt.Errorf("%s: lbn %d read version %d, acknowledged %d at issue, newest issued %d",
				name, lbn, ver, w.floor[i], f.issued[b])
		}
		fillBlock(w.want, lbn, ver)
		if !bytes.Equal(blk, w.want) {
			return fmt.Errorf("%s: lbn %d content does not match version %d", name, lbn, ver)
		}
		w.d.checked++
	}
	return nil
}

func (w *worker) write(f *file, off uint64, b0, nb int) {
	d := w.d
	d.nextVer++
	ver := d.nextVer
	buf := w.buf[:nb*extfs.BlockSize]
	for i := 0; i < nb; i++ {
		b := b0 + i
		f.busy[b] = true
		f.issued[b] = ver
		fillBlock(buf[i*extfs.BlockSize:(i+1)*extfs.BlockSize], f.startLBN+int64(b), ver)
	}
	w.withRoute(f.fh, func(c *nfs.Client, t0 sim.Time) {
		payload, err := c.Node().BlkPool.GetChain(buf)
		if err != nil {
			d.fail(err)
			return
		}
		payload.SetOwner("perfbench.write")
		sp := w.begin(c, "write")
		c.Write(f.fh, off, payload, func(n int, _ nfs.Attr, err error) {
			sp.Finish()
			for i := 0; i < nb; i++ {
				f.busy[b0+i] = false
				if err == nil {
					f.acked[b0+i] = ver
				}
			}
			if err == nil && n != nb*extfs.BlockSize {
				err = fmt.Errorf("short write %d of %d", n, nb*extfs.BlockSize)
			}
			d.done(clsWrite, t0, n, err)
			w.issue()
		})
	})
}

// meta issues one metadata op in the SFS split of workload.SFSLoad, drawn
// from v in [0, 100): 45 GETATTR of f, 35 LOOKUP of a missing name (ENOENT
// is the probe's expected answer), 10 READDIR and 10 CREATE then REMOVE of
// a fresh name, all three in the scratch directory.
func (w *worker) meta(f *file, v int) {
	d := w.d
	fh := f.fh
	if v >= 45 {
		fh = d.scratch
	}
	w.withRoute(fh, func(c *nfs.Client, t0 sim.Time) {
		sp := w.begin(c, "meta")
		finish := func(err error) {
			sp.Finish()
			d.done(clsMeta, t0, 0, err)
			w.issue()
		}
		switch {
		case v < 45:
			c.Getattr(f.fh, func(a nfs.Attr, err error) {
				if err == nil && a.Size != f.size {
					d.fail(fmt.Errorf("%s: getattr size %d, want %d", d.s.name, a.Size, f.size))
				}
				finish(err)
			})
		case v < 80:
			c.Lookup(d.scratch, "perfbench-absent", func(_ nfs.FH, _ nfs.Attr, err error) {
				if oe, ok := err.(*nfs.OpError); ok && oe.Status == nfs.ErrNoEnt {
					err = nil
				} else if err == nil {
					d.fail(fmt.Errorf("%s: lookup of a missing name succeeded", d.s.name))
				}
				finish(err)
			})
		case v < 90:
			c.Readdir(d.scratch, func(_ []string, err error) { finish(err) })
		default:
			d.scratchN++
			name := fmt.Sprintf("tmp-%d", d.scratchN)
			c.Create(d.scratch, name, func(_ nfs.FH, _ nfs.Attr, err error) {
				if err != nil {
					finish(err)
					return
				}
				// The create is one op, the remove another.
				sp.Finish()
				d.done(clsMeta, t0, 0, nil)
				t1 := d.eng.Now()
				sp = w.begin(c, "meta")
				c.Remove(d.scratch, name, func(err error) {
					sp.Finish()
					d.done(clsMeta, t1, 0, err)
					w.issue()
				})
			})
		}
	})
}
