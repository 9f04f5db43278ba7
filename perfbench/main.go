// Command perfbench is the repository's benchmark. It builds a simulated
// NCache cluster through the public passthru/extfs/nfs APIs, drives one of
// three closed-loop workloads, checks every read against a version model of
// the file contents, and prints end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload nfs-read-hit --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload all
//
// See README.md for the metrics, workloads and measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metricDef is one reported metric; bound is the share of the parent's
// median by which an end-to-end metric may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s", "higher", 0.1},
	{"sim_mb_per_s", "MB/s", "higher", 0.1},
	{"sim_read_p50_us", "us", "lower", 0.05},
	{"sim_read_p99_us", "us", "lower", 0.25},
	{"sim_server_cpu_us_per_op", "us", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"host_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.06},
	{"peak_heap_mb", "MB", "lower", 0.12},
}

// perLayer lists the traced run's metrics; units follow the name suffix.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	add("sim.events_per_op", "count", "lower")
	add("sim.dispatch_ns", "ns", "lower")
	add("sim.dispatch_allocs", "count", "lower")
	add("sim.write_p50_us", "us", "lower")
	add("sim.write_p99_us", "us", "lower")
	add("sim.write_samples", "count", "higher")
	add("sim.read_samples", "count", "higher")
	add("sim.op_fail_ratio", "ratio", "lower")
	add("sim.content_checked", "count", "higher")
	add("netbuf.checksum_ns_per_kb", "ns", "lower")
	add("netbuf.chain_get_release_ns", "ns", "lower")
	add("netbuf.chain_get_release_allocs", "count", "lower")
	for _, l := range []string{"sunrpc.xdr_codec", "iscsi.pdu_codec", "ncache.capture", "ncache.lookup", "wal.append", "controlplane.wire_codec"} {
		add(l+"_ns", "ns", "lower")
		add(l+"_allocs", "count", "lower")
	}
	for _, m := range hostModules {
		add("host_share."+m, "ratio", "lower")
	}
	for _, b := range hostBuckets {
		add("host_share."+b, "ratio", "lower")
	}
	add("trace.overhead_us_per_op", "us", "lower")
	for _, op := range []string{"read", "write"} {
		for _, l := range []string{"client", "net", "rpc", "server", "fs", "ncache", "iscsi", "disk"} {
			add("trace."+op+"."+l+"_share", "ratio", "lower")
		}
		for _, c := range []string{"cpu", "nic", "link", "disk"} {
			add("trace."+op+".wait_"+c+"_us", "us", "lower")
		}
	}
	add("simnet.server_cpu_util", "ratio", "higher")
	add("simnet.nic_tx_util", "ratio", "higher")
	add("ncache.l2_hit_ratio", "ratio", "higher")
	add("ncache.captures_per_op", "count", "lower")
	add("ncache.evictions_per_op", "count", "lower")
	add("ncache.substitutions_per_op", "count", "higher")
	add("buffercache.flush_batches", "count", "lower")
	add("buffercache.mean_batch_blocks", "count", "higher")
	add("buffercache.stall_ms", "ms", "lower")
	add("buffercache.dirty_peak_mb", "MB", "lower")
	add("wal.commits", "count", "lower")
	add("wal.mean_commit_records", "count", "higher")
	add("wal.peak_depth", "count", "lower")
	add("storage.arm_writes_per_write", "count", "lower")
	add("storage.arm_read_split", "ratio", "higher")
	add("iscsi.commands_per_op", "count", "lower")
	add("blockdev.disk_util", "ratio", "lower")
	add("blockdev.bytes_written_per_user_byte", "ratio", "lower")
	add("controlplane.cpu_util", "ratio", "lower")
	add("controlplane.lookups_per_op", "count", "lower")
	add("controlplane.local_route_hit_ratio", "ratio", "higher")
	add("controlplane.remaps_sent", "count", "lower")
	add("controlplane.invals_applied", "count", "lower")
	add("sunrpc.retransmits", "count", "lower")
	add("proto.tcp.retransmits", "count", "lower")
	return defs
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// subSeeds is how many workload seeds one run pools. One seed's window is
// a small sample of a queueing workload: scaleout-readspill's ops/s varies
// by about 6% from seed to seed. So a run cycles its reps through subSeeds
// seeds derived from --seed, replays each at least once, and reports the
// simulated metrics of their pooled windows.
const subSeeds = 4

const (
	minReps = 2 * subSeeds
	maxReps = 30
)

// subSeed is the workload seed of rep i of a run with seed seed.
func subSeed(seed uint64, i int) uint64 { return seed*subSeeds + uint64(i%subSeeds) }

func main() {
	workload := flag.String("workload", "", "workload name, or all: every gated workload, untraced then traced")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 45, "host seconds to keep repeating set-up and window")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	describe := flag.Bool("describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *describe {
		printSpec()
		return
	}
	budget := time.Duration(*seconds) * time.Second
	run := func(s spec, tr int) (result, error) {
		if tr == 1 {
			return runTraced(s, *seed)
		}
		return runPlain(s, *seed, budget)
	}
	var res result
	if *workload == "all" {
		res = result{Correct: true, Metrics: map[string]value{}}
		for _, s := range workloads {
			if s.ungated {
				continue
			}
			for tr := 0; tr <= 1; tr++ {
				fmt.Printf("== %s trace %d\n", s.name, tr)
				r, err := run(s, tr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", s.name, *seed, err)
					r.Correct = false
				}
				res.Correct = res.Correct && r.Correct
				res.Attempted += r.Attempted
				res.Failed += r.Failed
				for k, v := range r.Metrics {
					res.Metrics[s.name+"/"+k] = v
				}
			}
		}
	} else {
		s, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		var err error
		if res, err = run(s, *traced); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", s.name, *seed, err)
			res.Correct = false
		}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkSim applies the correctness checks every measured rep must pass.
func checkSim(s spec, r *rep) error {
	if r.sim.ops == 0 {
		return fmt.Errorf("no operation completed in the window")
	}
	if r.sim.failed != 0 || r.sim.routeErr != 0 {
		return fmt.Errorf("op_fail_ratio %g: %d failed ops, %d route errors",
			float64(r.sim.failed)/float64(r.sim.ops+r.sim.failed), r.sim.failed, r.sim.routeErr)
	}
	if r.retransmits != 0 {
		return fmt.Errorf("%d RPC or TCP retransmits in a fault-free run", r.retransmits)
	}
	if s.writePct > 0 && r.sim.lat[clsWrite].n == 0 {
		return fmt.Errorf("no write completed in the window")
	}
	return nil
}

func runPlain(s spec, seed uint64, budget time.Duration) (result, error) {
	res := result{Metrics: map[string]value{}}
	start := time.Now()
	var reps []*rep
	for len(reps) < minReps || (time.Since(start) < budget && len(reps) < maxReps) {
		i := len(reps)
		r, err := runRep(s, runOpts{seed: subSeed(seed, i), drainCheck: i < subSeeds})
		if r != nil {
			res.Attempted += r.sim.ops + r.sim.failed
			res.Failed += r.sim.failed
		}
		if err != nil {
			return res, err
		}
		if err := checkSim(s, r); err != nil {
			return res, err
		}
		if i >= subSeeds && r.sim != reps[i-subSeeds].sim {
			return res, fmt.Errorf("rep %d replayed seed %d with different simulated results", i+1, subSeed(seed, i))
		}
		reps = append(reps, r)
		fmt.Printf("rep %d: setup %.3fs window %.3fs ops %d allocs %d\n", len(reps), r.setupS, r.windowS, r.sim.ops, r.mallocs)
	}
	var ops, bytes, win, busy float64
	var reads []int64
	for _, r := range reps[:subSeeds] {
		ops += float64(r.sim.ops)
		bytes += float64(r.sim.bytes)
		win += float64(r.sim.windowNs) / 1e9
		busy += float64(r.sim.serverBusy)
		reads = append(reads, r.lat[clsRead]...)
	}
	read := percentiles(reads)
	all := func(f func(*rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	vals := map[string]float64{
		"sim_ops_per_s":            ops / win,
		"sim_mb_per_s":             bytes / win / 1e6,
		"sim_read_p50_us":          float64(read.p50) / 1e3,
		"sim_read_p99_us":          float64(read.p99) / 1e3,
		"sim_server_cpu_us_per_op": busy / ops / 1e3,
		"setup_s":                  all(func(r *rep) float64 { return r.setupS }),
		"host_us_per_op":           all(func(r *rep) float64 { return r.windowS * 1e6 / float64(r.sim.ops) }),
		"allocs_per_op":            all(func(r *rep) float64 { return float64(r.mallocs) / float64(r.sim.ops) }),
		"alloc_bytes_per_op":       all(func(r *rep) float64 { return float64(r.allocB) / float64(r.sim.ops) }),
		"peak_heap_mb":             all(func(r *rep) float64 { return float64(r.peakHeap) / 1e6 }),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = value{vals[d.name], d.unit}
		fmt.Printf("%-26s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	printProvenance(s, seed, reps[:subSeeds], len(reps))
	res.Correct = true
	return res, nil
}

// runTraced runs one untraced and one traced, CPU-profiled rep of the
// run's first sub-seed, requires them to agree on every simulated result,
// and reports the per-layer metrics of the traced one.
func runTraced(s spec, seed uint64) (result, error) {
	res := result{Metrics: map[string]value{}}
	// The profile stays inside the checkout, next to the build.
	const dir = ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	prof := filepath.Join(dir, s.name+".cpu.pprof")
	var reps []*rep
	for _, o := range []runOpts{
		{seed: subSeed(seed, 0), drainCheck: true},
		{seed: subSeed(seed, 0), drainCheck: true, traced: true, profile: prof},
	} {
		r, err := runRep(s, o)
		if r != nil {
			res.Attempted += r.sim.ops + r.sim.failed
			res.Failed += r.sim.failed
		}
		if err != nil {
			return res, err
		}
		if err := checkSim(s, r); err != nil {
			return res, err
		}
		reps = append(reps, r)
	}
	plain, tr := reps[0], reps[1]
	if plain.sim != tr.sim {
		return res, fmt.Errorf("traced and untraced runs gave different simulated results")
	}
	vals := layerMetrics(tr)
	ops := float64(tr.sim.ops)
	vals["trace.overhead_us_per_op"] = (tr.windowS - plain.windowS) * 1e6 / ops
	for k, v := range microTimings() {
		vals[k] = v
	}
	// The residue below one allocation per 100 dispatches is the runtime's
	// own background allocation during the timing loop.
	if a := vals["sim.dispatch_allocs"]; a >= 0.01 {
		return res, fmt.Errorf("sim dispatch allocates %.3f objects per event", a)
	}
	shares, err := hostShares(prof)
	if err != nil {
		return res, err
	}
	for k, v := range shares {
		vals[k] = v
	}
	for _, d := range perLayer() {
		v, ok := vals[d.name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-40s %14.4f %s\n", d.name, v, d.unit)
	}
	printProvenance(s, seed, []*rep{tr}, 1)
	res.Correct = true
	return res, nil
}

// printProvenance records what a result was measured on and the sample
// count behind each percentile, pooled over the reps of the distinct
// sub-seeds the metrics come from.
func printProvenance(s spec, seed uint64, pooled []*rep, reps int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	samples := map[string]int{}
	var checked uint64
	var seeds []uint64
	for i, r := range pooled {
		for c, name := range classNames {
			samples[name] += r.sim.lat[c].n
		}
		checked += r.checked
		seeds = append(seeds, subSeed(seed, i))
	}
	p := map[string]any{
		"workload":       s.name,
		"seed":           seed,
		"sub_seeds":      seeds,
		"commit":         commit,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"window_ms":      float64(s.window) / 1e6,
		"warmup_ms":      float64(s.warmup) / 1e6,
		"reps":           reps,
		"samples":        samples,
		"blocks_checked": checked,
	}
	out, _ := json.Marshal(p)
	fmt.Printf("provenance %s\n", out)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentiles returns the nearest-rank p50 and p99 of exact samples.
func percentiles(v []int64) latStats {
	if len(v) == 0 {
		return latStats{}
	}
	s := slices.Clone(v)
	slices.Sort(s)
	rank := func(p float64) int64 {
		i := int(math.Ceil(p * float64(len(s))))
		return s[max(i, 1)-1]
	}
	return latStats{n: len(s), p50: rank(0.50), p99: rank(0.99)}
}

// printSpec renders BENCHMARK.json from the metric tables.
func printSpec() {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}
	doc.Command = []string{"bash", "perfbench/run.sh"}
	doc.Paths = []string{"perfbench"}
	doc.RunSeconds = 45
	for _, s := range workloads {
		if !s.ungated {
			doc.Workloads = append(doc.Workloads, wl{s.name, s.why})
		}
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(out))
}
