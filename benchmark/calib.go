package main

import (
	"runtime/debug"
	"sort"
	"time"
)

// The container this benchmark runs on is a guest of a shared host whose
// other guests slow it by up to 40 % for minutes at a time, through the
// memory system: an arithmetic loop does not notice, code that allocates
// does. Two runs of the same code then differ by more than any bound worth
// setting. So the benchmark measures the host beside the program: between
// ops it times a fixed kernel of ordinary Go work, and every wall time it
// reports is divided by how much slower than calReference the kernel ran
// just before and just after. Reported times are milliseconds on a quiet
// reference container; on one they are wall times. Over ten minutes in which
// windows of 36 exec-whatif ops spread 11 % (quartiles) and 40 % (range) in
// wall time, the corrected medians spread 2.5-4.6 % and 8-17 %.

// calReference is what calibrate takes on the reference container (2 vCPUs
// of a Xeon at 2.1 GHz) when its neighbours are quiet.
const calReference = 11500 * time.Microsecond

// calEvery is the longest stretch of ops between two calibrations.
const calEvery = 100 * time.Millisecond

type calNode struct {
	next *calNode
	key  uint64
	pad  [5]uint64
}

var calSink uint64

// calibrate times the kernel: it allocates a linked list, fills a map, sorts
// the keys, walks the list and looks every key up, the mix the program's own
// layers are made of. It reads and writes nothing of the program's, and the
// collector is off while it runs: whether its 5 MB start a collection
// depends on the program's live heap, and on a small one that cost the
// kernel 20-50 %. What remains of the program in it is the state its heap
// leaves the caches in: 15 % between a live heap of nothing and of 200 MB.
func calibrate() time.Duration {
	const n = 40000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	x := uint64(2463534242)
	byKey := make(map[uint64]*calNode)
	keys := make([]uint64, 0, n)
	var head *calNode
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		head = &calNode{next: head, key: x}
		byKey[x%(2*n)] = head
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sum uint64
	for node := head; node != nil; node = node.next {
		sum += node.key
	}
	for _, k := range keys {
		if node := byKey[k%(2*n)]; node != nil {
			sum += node.key
		}
	}
	calSink += sum
	return time.Since(t0)
}

// slowdown is how many times slower than the reference the host ran between
// two calibrations.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(calReference)
}

// onReference converts a wall time measured at the given slowdown.
func onReference(d time.Duration, slow float64) time.Duration {
	return time.Duration(float64(d) / slow)
}

// calibrated runs f between two calibrations and returns the slowdown its
// timings are to be divided by.
func calibrated(f func() error) (float64, error) {
	before := calibrate()
	err := f()
	return slowdown(before, calibrate()), err
}
