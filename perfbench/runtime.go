package main

import (
	"runtime"
	"runtime/metrics"
)

// runtimeSample reads the Go runtime counters a window is judged by:
// allocations, GC cycles and the GC's share of CPU time.
type runtimeSample struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (s *runtimeSample) read() {
	samples := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		samples[i].Name = k
	}
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.allocs = samples[1].Value.Uint64()
	s.gcCycles = samples[2].Value.Uint64()
	s.gcCPU = samples[3].Value.Float64()
	s.totalCPU = samples[4].Value.Float64()
}

// settledHeap forces a GC and returns the live heap in bytes.
func settledHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
