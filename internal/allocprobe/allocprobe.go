// Package allocprobe counts what a piece of this module's code allocates,
// for the tests that pin an allocation budget. Every allocation is recorded
// in the memory profile (MemProfileRate 1), and one counts when a frame of
// its stack is the module's code outside its test files and outside this
// package, and none is a scheduling frame. What the runtime, the TCP poller,
// finalizers and the test binary allocate beside it — the run-to-run noise
// of runtime.MemStats — has no such frame.
package allocprobe

import (
	"runtime"
	"strings"
)

// Own runs f and returns the objects and bytes this module's code allocated
// meanwhile. A large object counts with the whole pages the heap gave it.
func Own(f func()) (objects, bytes float64) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	o0, b0 := moduleAllocs()
	f()
	o1, b1 := moduleAllocs()
	return float64(o1 - o0), float64(b1 - b0)
}

// schedulingFrames mark allocations that refill a runtime per-P cache (a
// sudog per goroutine blocked in a select or on a channel, the timer heap)
// or a sync.Pool: how many there are depends on how many goroutines happen
// to wait at once, or on when the collector last emptied the pool, not on
// what the code does.
var schedulingFrames = []string{"runtime.selectgo", "runtime.chansend", "runtime.chanrecv",
	"runtime.(*timer", "sync.(*Pool).Get"}

// moduleAllocs sums the memory profile's allocation counts over the stacks
// Own counts. The profile publishes what was allocated before the last
// completed collection, so it collects first.
func moduleAllocs() (objects, bytes int64) {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
		recs = recs[:n]
	}
	for _, r := range recs {
		if ownStack(r.Stack()) {
			objects += r.AllocObjects
			bytes += r.AllocBytes
		}
	}
	return objects, bytes
}

// ownStack reports whether an allocation's stack runs through the module's
// code outside its test files and this package, and through no scheduling
// frame.
func ownStack(stack []uintptr) bool {
	own := false
	frames := runtime.CallersFrames(stack)
	for more := true; more; {
		var fr runtime.Frame
		fr, more = frames.Next()
		for _, prefix := range schedulingFrames {
			if strings.HasPrefix(fr.Function, prefix) {
				return false
			}
		}
		module := strings.HasPrefix(fr.Function, "hieradmo/") &&
			!strings.HasPrefix(fr.Function, "hieradmo/internal/allocprobe.")
		if module && !strings.HasSuffix(fr.File, "_test.go") {
			own = true
		}
	}
	return own
}
