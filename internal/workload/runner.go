package workload

import (
	"fmt"
	"sync/atomic"

	"ncache/internal/sim"
)

// Runner measures a closed-loop workload in steady state: start the
// workers, run a warm-up, reset all counters, run the measurement window,
// then stop. Throughput and utilization are computed over the window only,
// as the paper's steady-state measurements are.
type Runner struct {
	Eng    *sim.Engine
	Warmup sim.Duration
	Window sim.Duration
}

// Measurement is the window-relative outcome.
type Measurement struct {
	Elapsed sim.Duration
	Ops     uint64
	Bytes   uint64
	Errors  uint64
}

// Throughput returns bytes per second over the window.
func (m Measurement) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Bytes) / m.Elapsed.Seconds()
}

// OpsPerSec returns operations per second over the window.
func (m Measurement) OpsPerSec() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Ops) / m.Elapsed.Seconds()
}

// Load is a closed-loop workload.
type Load interface {
	// Start launches the workers; they re-issue until Stop.
	Start()
	// Stop prevents further issues (in-flight operations drain).
	Stop()
	// Counters reports cumulative ops/bytes/errors completed so far.
	Counters() (ops, bytes, errs uint64)
}

// tally is a load's completion counters and implements Load.Counters for
// every load that embeds it. Under the parallel engine completions land on
// each client's own shard, so every update is atomic; the sums commute, so
// totals replay identically for any worker count.
type tally struct {
	ops, bytes, errs atomic.Uint64
}

// Counters implements Load.
func (t *tally) Counters() (uint64, uint64, uint64) {
	return t.ops.Load(), t.bytes.Load(), t.errs.Load()
}

// finish books one completed operation that moved n bytes, or a failure.
func (t *tally) finish(n int, err error) {
	if err != nil {
		t.errs.Add(1)
		return
	}
	t.ops.Add(1)
	t.bytes.Add(uint64(n))
}

// Run drives a load through warm-up and measurement. resetStats is invoked
// at the window start and sample at the window end (before the drain), so
// resource utilization reflects steady state only.
func (r *Runner) Run(load Load, resetStats, sample func()) (Measurement, error) {
	load.Start()
	if err := r.Eng.RunFor(r.Warmup); err != nil {
		return Measurement{}, fmt.Errorf("warmup: %w", err)
	}
	ops0, bytes0, errs0 := load.Counters()
	if resetStats != nil {
		resetStats()
	}
	if err := r.Eng.RunFor(r.Window); err != nil {
		return Measurement{}, fmt.Errorf("window: %w", err)
	}
	ops1, bytes1, errs1 := load.Counters()
	if sample != nil {
		sample()
	}
	load.Stop()
	// Drain in-flight work so the cluster can be reused or inspected.
	if err := r.Eng.Run(); err != nil {
		return Measurement{}, fmt.Errorf("drain: %w", err)
	}
	return Measurement{
		Elapsed: r.Window,
		Ops:     ops1 - ops0,
		Bytes:   bytes1 - bytes0,
		Errors:  errs1 - errs0,
	}, nil
}
