package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// hostModules are the ncache/internal packages a host CPU share is
// reported for; proto/* folds into proto.
var hostModules = []string{
	"blockdev", "buffercache", "controlplane", "extfs", "fault", "iscsi",
	"lkey", "metrics", "ncache", "netbuf", "nfs", "passthru", "proto",
	"scsi", "sim", "simnet", "storage", "sunrpc", "trace", "wal", "xdr",
}

// hostBuckets are the remaining host_share buckets: the garbage collector,
// the allocator, other runtime work, this benchmark's own load generator, and
// everything else (standard library called from outside the modules).
var hostBuckets = []string{"runtime.gc", "runtime.malloc", "runtime.other", "harness", "other"}

func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	stopped := false
	return func() {
		if !stopped {
			stopped = true
			pprof.StopCPUProfile()
			f.Close()
		}
	}, nil
}

// classify names the bucket one sampled stack (leaf first) is charged to:
// GC work wherever it runs, then allocation, then the innermost frame in a
// module, then the harness, then runtime or other leaf code.
func classify(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.GC"),
			strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.markroot"):
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return "runtime.malloc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "ncache/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			return mod
		}
		if strings.HasPrefix(fn, "main.") {
			return "harness"
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime.other"
	}
	return "other"
}

// hostShares groups the CPU profile's samples by module with
// `go tool pprof -traces`, which ships with the toolchain.
func hostShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	for _, m := range hostModules {
		shares["host_share."+m] = 0
	}
	for _, b := range hostBuckets {
		shares["host_share."+b] = 0
	}
	var total time.Duration
	var val time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			key := "host_share." + classify(stack)
			if _, ok := shares[key]; !ok {
				key = "host_share.other"
			}
			shares[key] += float64(val)
			total += val
		}
		stack, val = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			val = d
			stack = append(stack, fields[1])
			continue
		}
		if len(stack) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("empty CPU profile %s", path)
	}
	for k, v := range shares {
		shares[k] = v / float64(total)
	}
	return shares, nil
}
