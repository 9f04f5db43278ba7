package main

import (
	"runtime"
	"slices"
	"time"

	"ncache/internal/controlplane"
	"ncache/internal/iscsi"
	"ncache/internal/ncache"
	"ncache/internal/netbuf"
	"ncache/internal/sim"
	"ncache/internal/simnet"
	"ncache/internal/wal"
	"ncache/internal/xdr"
)

// microResult is one micro-timing: host ns and heap allocations per call.
type microResult struct {
	ns, allocs float64
}

// timeLoop runs body(n) — n calls of the measured operation — in rounds of
// about 100 ms and reports the median round's ns per call, plus allocations
// per call over all rounds.
func timeLoop(body func(n int)) microResult {
	n := 1
	for {
		t := time.Now()
		body(n)
		if time.Since(t) > 10*time.Millisecond {
			break
		}
		n *= 4
	}
	n *= 10
	const rounds = 5
	var ns []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		t := time.Now()
		body(n)
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&m1)
	slices.Sort(ns)
	return microResult{ns: ns[rounds/2], allocs: float64(m1.Mallocs-m0.Mallocs) / float64(rounds*n)}
}

// microTimings calls each layer's synchronous public entry points directly,
// outside any cluster, and returns their per-layer metrics.
func microTimings() map[string]float64 {
	m := map[string]float64{}
	put := func(name string, r microResult) {
		m[name+"_ns"] = r.ns
		m[name+"_allocs"] = r.allocs
	}

	// netbuf: the Internet checksum over 64 KB, reported per KB.
	data := make([]byte, 64*kb)
	fillBlock(data, 1, 1)
	ck := timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			netbuf.Sum(data)
		}
	})
	m["netbuf.checksum_ns_per_kb"] = ck.ns / 64

	// netbuf: an 8 KB chain drawn from a pool and released.
	pool := netbuf.NewPool("micro", netbuf.DefaultHeadroom, netbuf.DefaultBufSize, 0)
	put("netbuf.chain_get_release", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			ch, _ := pool.GetChain(data[:8*kb])
			ch.Release()
		}
	}))

	// sim: schedule and dispatch, in batches of 1024 pending events.
	eng := sim.NewEngine()
	noop := func() {}
	put("sim.dispatch", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			eng.Schedule(sim.Duration(i%1024), noop)
			if i%1024 == 1023 {
				_ = eng.Run()
			}
		}
		_ = eng.Run()
	}))

	// sunrpc/xdr: an RPC call header plus NFS READ arguments, encoded and
	// decoded.
	var fh [32]byte
	put("sunrpc.xdr_codec", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			e := xdr.NewEncoder(96)
			e.Uint32(uint32(i))
			e.Uint32(0)
			e.Uint32(2)
			e.Uint32(100003)
			e.Uint32(3)
			e.Uint32(6)
			e.Uint32(0)
			e.Uint32(0)
			e.Uint32(0)
			e.Uint32(0)
			e.FixedOpaque(fh[:])
			e.Uint64(uint64(i) * 4096)
			e.Uint32(32 * kb)
			d := xdr.NewDecoder(e.Bytes())
			for j := 0; j < 10; j++ {
				_, _ = d.Uint32()
			}
			_, _ = d.FixedOpaque(len(fh))
			_, _ = d.Uint64()
			_, _ = d.Uint32()
		}
	}))

	// iscsi: a SCSI command PDU with a 4 KB data segment encoded and
	// framed back out of the byte stream.
	blk := netbuf.NewPool("micro.blk", netbuf.DefaultHeadroom, simnet.BlockBufSize, 0)
	framer := iscsi.NewFramer(func(p iscsi.PDU) {
		if p.Data != nil {
			p.Data.Release()
		}
	})
	put("iscsi.pdu_codec", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			payload, _ := blk.GetChain(data[:4*kb])
			p := iscsi.PDU{Op: iscsi.OpSCSICmd, Final: true, ITT: uint32(i), ExpectedLen: 4 * kb, Data: payload}
			ch, _ := p.EncodePool(pool)
			framer.Push(ch)
		}
	}))

	// ncache: capture of one 4 KB block by LBN, and a full-hit lookup.
	node := simnet.NewNode(sim.NewEngine(), "micro", simnet.DefaultProfile())
	mod := ncache.New(node, ncache.Config{CapacityBytes: 64 << 20})
	const lbns = 4096
	put("ncache.capture", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			ch, _ := node.RxPool.GetChain(data[:4*kb])
			mod.CaptureLBN(int64(i%lbns), 1, ch).Release()
			if i%1024 == 1023 {
				_ = node.Eng.Run()
			}
		}
		_ = node.Eng.Run()
	}))
	put("ncache.lookup", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			if ch, ok := mod.ServeRead(int64(i%lbns), 1); ok {
				ch.Release()
			}
			if i%1024 == 1023 {
				_ = node.Eng.Run()
			}
		}
		_ = node.Eng.Run()
	}))

	// wal: append of a one-block record, group-committed and retired.
	weng := sim.NewEngine()
	log := wal.New(weng, wal.Config{}, nil)
	recs := make([]wal.Record, 256)
	for i := range recs {
		recs[i] = wal.Record{Ino: 3, Off: uint64(i) * 4096, LBNs: []int64{int64(i)}, Data: data[:4*kb]}
	}
	retire := func(int64) bool { return false }
	put("wal.append", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			log.Append(&recs[i%len(recs)], noop)
			if i%len(recs) == len(recs)-1 {
				_ = weng.Run()
				log.Truncate(retire)
			}
		}
		_ = weng.Run()
		log.Truncate(retire)
	}))

	// controlplane: a remap of 8 LBNs encoded and framed back.
	cpf := controlplane.NewFramer(func(controlplane.Msg) {})
	msg := controlplane.Msg{Type: controlplane.MsgRemap, Epoch: 1, LBNs: []int64{1, 2, 3, 4, 5, 6, 7, 8}}
	put("controlplane.wire_codec", timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			msg.Seq = uint64(i)
			ch, _ := controlplane.Encode(pool, msg)
			cpf.Push(ch)
		}
	}))
	return m
}
