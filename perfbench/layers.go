package main

import (
	"ncache/internal/passthru"
	"ncache/internal/trace"
)

// snapshot is a set of cumulative per-layer counters; the window's share is
// the difference of two snapshots. Gauges (peaks, utilizations) are filled
// in after the window by utilization.
type snapshot struct {
	captures, evictions, substitutions, l2Hits, l2Misses uint64

	flushBatches, flushBlocks, walCommits, commitRecords uint64
	stallNs                                              int64
	dirtyPeak, walPeak                                   int64

	armReads, armWrites []uint64

	iscsiCmds    uint64
	diskWritten  uint64
	cpLookups    uint64
	routeLookups uint64
	localHits    uint64
	remapsSent   uint64
	invals       uint64
	rpcRetrans   uint64
	tcpRetrans   uint64

	serverCPU, nicTx, diskUtil, cpCPU float64
}

func takeSnapshot(cl *passthru.Cluster, scs []*passthru.ScaleClient) snapshot {
	var s snapshot
	for _, app := range cl.Apps {
		if m := app.Module; m != nil {
			s.captures += m.Stats.Captures
			s.evictions += m.Stats.Evictions
			s.substitutions += m.Stats.Substitutions
			s.l2Hits += m.Stats.L2Hits
			s.l2Misses += m.Stats.L2Misses
		}
		if wb := app.WB; wb != nil {
			s.flushBatches += wb.FlushBatches
			s.flushBlocks += wb.FlushBlocks
			s.walCommits += wb.WALCommits
			s.commitRecords += wb.CommitRecords
			s.stallNs += wb.StallNs
			s.dirtyPeak = max(s.dirtyPeak, wb.DirtyPeakBytes)
			s.walPeak = max(s.walPeak, wb.WALPeakDepth)
		}
		for _, mv := range app.Mirrors {
			if mv == nil {
				continue
			}
			for i, a := range mv.Stats() {
				for len(s.armReads) <= i {
					s.armReads = append(s.armReads, 0)
					s.armWrites = append(s.armWrites, 0)
				}
				s.armReads[i] += a.Reads
				s.armWrites[i] += a.Writes
			}
		}
		for _, ini := range app.Initiators {
			s.iscsiCmds += ini.ReadCmds + ini.WriteCmds
		}
		if ag := app.Agent; ag != nil {
			s.remapsSent += ag.Stats.RemapsSent
			s.invals += ag.Stats.InvalidationsApplied
		}
	}
	for _, st := range cl.Storages {
		for _, dk := range st.Array.Disks() {
			s.diskWritten += dk.BytesWritten
		}
	}
	if cl.Control != nil {
		s.cpLookups = cl.Control.Stats.LookupsFH + cl.Control.Stats.LookupsLBN
	}
	for _, h := range cl.Clients {
		if h.NFS != nil {
			if rpc := h.NFS.DatagramRPC(); rpc != nil {
				s.rpcRetrans += rpc.Retransmits
			}
		}
	}
	for _, sc := range scs {
		for _, c := range sc.NFS {
			if rpc := c.DatagramRPC(); rpc != nil {
				s.rpcRetrans += rpc.Retransmits
			}
		}
		if sc.Resolver != nil {
			s.routeLookups += sc.Resolver.Stats.Lookups
			s.localHits += sc.Resolver.Stats.CacheHits + sc.Resolver.Stats.LocalHits
		}
	}
	s.tcpRetrans, _, _, _, _ = cl.TCPCounters()
	return s
}

// sub returns the window's counts: s minus the snapshot taken at the
// window start. Peaks are run-wide high-water marks and stay as they are.
func (s snapshot) sub(o snapshot) snapshot {
	d := s
	d.captures -= o.captures
	d.evictions -= o.evictions
	d.substitutions -= o.substitutions
	d.l2Hits -= o.l2Hits
	d.l2Misses -= o.l2Misses
	d.flushBatches -= o.flushBatches
	d.flushBlocks -= o.flushBlocks
	d.walCommits -= o.walCommits
	d.commitRecords -= o.commitRecords
	d.stallNs -= o.stallNs
	d.armReads = append([]uint64(nil), s.armReads...)
	d.armWrites = append([]uint64(nil), s.armWrites...)
	for i := range o.armReads {
		d.armReads[i] -= o.armReads[i]
		d.armWrites[i] -= o.armWrites[i]
	}
	d.iscsiCmds -= o.iscsiCmds
	d.diskWritten -= o.diskWritten
	d.cpLookups -= o.cpLookups
	d.routeLookups -= o.routeLookups
	d.localHits -= o.localHits
	d.remapsSent -= o.remapsSent
	d.invals -= o.invals
	d.rpcRetrans -= o.rpcRetrans
	d.tcpRetrans -= o.tcpRetrans
	return d
}

// utilization reads the resource utilizations of the window just ended
// (resetWindow restarted them at its start).
func (s *snapshot) utilization(cl *passthru.Cluster) {
	for _, app := range cl.Apps {
		s.serverCPU += app.Node.CPU.Utilization() / float64(len(cl.Apps))
		for _, nic := range app.Node.NICs() {
			s.nicTx = max(s.nicTx, nic.TxUtilization())
		}
	}
	n := 0
	for _, st := range cl.Storages {
		for _, dk := range st.Array.Disks() {
			s.diskUtil += dk.Utilization()
			n++
		}
	}
	if n > 0 {
		s.diskUtil /= float64(n)
	}
	if cl.Control != nil {
		s.cpCPU = cl.Control.Node().CPU.Utilization()
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics renders the per-layer metrics of a traced rep. Values of a
// layer a workload leaves idle read 0.
func layerMetrics(r *rep) map[string]float64 {
	s, res := r.snap, r.sim
	ops := float64(res.ops)
	m := map[string]float64{
		"sim.events_per_op":   ratio(float64(res.events), ops),
		"sim.write_p50_us":    float64(res.lat[clsWrite].p50) / 1e3,
		"sim.write_p99_us":    float64(res.lat[clsWrite].p99) / 1e3,
		"sim.write_samples":   float64(res.lat[clsWrite].n),
		"sim.read_samples":    float64(res.lat[clsRead].n),
		"sim.op_fail_ratio":   ratio(float64(res.failed), float64(res.ops+res.failed)),
		"sim.content_checked": float64(r.checked),

		"simnet.server_cpu_util": s.serverCPU,
		"simnet.nic_tx_util":     s.nicTx,

		"ncache.l2_hit_ratio":         l2HitRatio(s),
		"ncache.captures_per_op":      ratio(float64(s.captures), ops),
		"ncache.evictions_per_op":     ratio(float64(s.evictions), ops),
		"ncache.substitutions_per_op": ratio(float64(s.substitutions), ops),

		"buffercache.flush_batches":     float64(s.flushBatches),
		"buffercache.mean_batch_blocks": ratio(float64(s.flushBlocks), float64(s.flushBatches)),
		"buffercache.stall_ms":          float64(s.stallNs) / 1e6,
		"buffercache.dirty_peak_mb":     float64(s.dirtyPeak) / 1e6,

		"wal.commits":             float64(s.walCommits),
		"wal.mean_commit_records": ratio(float64(s.commitRecords), float64(s.walCommits)),
		"wal.peak_depth":          float64(s.walPeak),

		"iscsi.commands_per_op": ratio(float64(s.iscsiCmds), ops),

		"blockdev.disk_util":                   s.diskUtil,
		"blockdev.bytes_written_per_user_byte": ratio(float64(s.diskWritten), float64(res.writeBytes)),

		"controlplane.cpu_util":              s.cpCPU,
		"controlplane.lookups_per_op":        ratio(float64(s.cpLookups), ops),
		"controlplane.local_route_hit_ratio": ratio(float64(s.localHits), float64(s.routeLookups)),
		"controlplane.remaps_sent":           float64(s.remapsSent),
		"controlplane.invals_applied":        float64(s.invals),

		"sunrpc.retransmits":    float64(s.rpcRetrans),
		"proto.tcp.retransmits": float64(s.tcpRetrans),
	}
	var armR, armW uint64
	for i := range s.armReads {
		armR += s.armReads[i]
		armW += s.armWrites[i]
	}
	if len(s.armWrites) > 0 {
		m["storage.arm_writes_per_write"] = ratio(float64(armW), float64(s.armWrites[0]))
		m["storage.arm_read_split"] = ratio(float64(s.armReads[0]), float64(armR))
	} else {
		m["storage.arm_writes_per_write"] = 0
		m["storage.arm_read_split"] = 0
	}
	traceMetrics(m, r.tracer)
	return m
}

// l2HitRatio is the share of FS-cache misses NCache served without storage
// traffic; with no FS-cache miss at all nothing went to storage, so it is 1.
func l2HitRatio(s snapshot) float64 {
	if s.l2Hits+s.l2Misses == 0 {
		return 1
	}
	return float64(s.l2Hits) / float64(s.l2Hits+s.l2Misses)
}

var waitClasses = []trace.ResClass{trace.ResCPU, trace.ResNIC, trace.ResLink, trace.ResDisk}

// traceMetrics adds each op's per-layer share of its latency and its mean
// queueing wait per resource class, from the tracer's window summary.
func traceMetrics(m map[string]float64, sum *trace.Summary) {
	byOp := map[string]trace.OpSummary{}
	if sum != nil {
		for _, o := range sum.Ops {
			byOp[o.Op] = o
		}
	}
	for _, op := range []string{"read", "write"} {
		o := byOp[op]
		for l := trace.Layer(0); l < trace.NumLayers; l++ {
			v := 0.0
			if o.Total > 0 {
				v = float64(o.Layers[l].Total) / float64(o.Total)
			}
			m["trace."+op+"."+l.String()+"_share"] = v
		}
		for _, c := range waitClasses {
			v := 0.0
			if o.Count > 0 {
				v = float64(o.Res[c].Wait) / float64(o.Count) / 1e3
			}
			m["trace."+op+".wait_"+c.String()+"_us"] = v
		}
	}
}
