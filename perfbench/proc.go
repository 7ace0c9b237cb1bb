package main

import (
	"runtime/metrics"
	"time"
)

// residentBytes is the memory the Go runtime has mapped and not returned to
// the system: the process's resident footprint, which is nearly all Go heap
// here.
func residentBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// peakSampler tracks the peak of residentBytes while one measured stretch
// runs.
type peakSampler struct {
	stop, done chan struct{}
	peak       uint64 // written by the sampling goroutine until done closes
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentBytes()}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.peak = max(p.peak, residentBytes())
				return
			case <-tick.C:
				p.peak = max(p.peak, residentBytes())
			}
		}
	}()
	return p
}

// stopMB stops the sampler and returns the peak in MB.
func (p *peakSampler) stopMB() float64 {
	close(p.stop)
	<-p.done
	return float64(p.peak) / (1 << 20)
}

// goRuntime is a reading of the Go runtime's cumulative counters.
type goRuntime struct {
	gcCPU, totalCPU       float64
	allocObjs, allocBytes uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return goRuntime{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocObjs:  s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// since reports the runtime activity between two readings: the GC's share of
// CPU time, and allocations per search.
func (g goRuntime) since(before goRuntime, searches int) (gcFrac, allocs, allocKB float64) {
	if cpu := g.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (g.gcCPU - before.gcCPU) / cpu
	}
	allocs = perSearch(float64(g.allocObjs-before.allocObjs), searches)
	allocKB = perSearch(float64(g.allocBytes-before.allocBytes)/1024, searches)
	return gcFrac, allocs, allocKB
}
