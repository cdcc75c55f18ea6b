package mpi

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Event describes one completed MPI operation as observed by the PMPI-style
// hook layer. The trace package compresses streams of Events into RSDs.
type Event struct {
	// Op is the operation performed.
	Op Op
	// Rank is the world rank of the calling process.
	Rank int
	// CallSite is a stable hash of the call path that issued the operation
	// (ScalaTrace's stack signature). Two ranks executing the same source
	// location produce the same CallSite.
	CallSite uint64

	// CommID identifies the communicator; 0 is the world communicator.
	CommID int
	// CommSize is the communicator size at the time of the call.
	CommSize int

	// Peer is the communicator-relative peer rank: destination for sends,
	// source for receives (possibly AnySource). Unused ops carry -2.
	Peer int
	// PeerWorld is the absolute (world) peer rank. For wildcard receives it
	// holds the world rank of the sender that actually matched, while Peer
	// retains AnySource — mirroring ScalaTrace, which does not resolve
	// wildcards at trace time.
	PeerWorld int
	// SourceWasWildcard records that the receive was posted with AnySource.
	SourceWasWildcard bool

	// Tag is the message tag (pt2pt only).
	Tag int
	// Size is the per-rank payload in bytes: the message size for pt2pt,
	// this rank's contribution for collectives, and the number of completed
	// requests for Wait/Waitall.
	Size int
	// Counts carries per-peer byte counts for the v-variant collectives.
	Counts []int
	// Root is the communicator-relative root of rooted collectives, -1
	// otherwise.
	Root int

	// Group is the comm-rank-to-world-rank mapping of a newly created
	// communicator (CommSplit/CommDup), nil otherwise.
	Group []int
	// NewCommID is the identifier of the communicator created by
	// CommSplit/CommDup, 0 otherwise.
	NewCommID int

	// ComputeUS is the virtual computation time that elapsed on this rank
	// between the end of the previous MPI call and the start of this one —
	// ScalaTrace's inter-call delta time.
	ComputeUS float64
	// StartUS and EndUS are the operation's virtual start and completion
	// times on this rank.
	StartUS, EndUS float64
}

// NoPeer marks the Peer field of operations without a peer.
const NoPeer = -2

// Tracer observes every MPI operation a rank performs, in program order.
// The runtime creates one Tracer per rank.
//
// The engine steps one rank at a time (scheduler.go), so the Tracers of one
// world are called one at a time, in one total order: each call happens
// before the next, whichever goroutine the rank runs on, because every
// switch between ranks is a synchronization point. The Tracers of one world
// may therefore share state without a lock, and a consumer fed in call order
// sees each rank's events in program order (trace.Collector relies on both).
// Tracers of different worlds may be called concurrently.
//
// ev points at the rank's scratch event and is valid only during Record:
// the runtime overwrites it for the rank's next operation, and its Counts
// and Group slices alias runtime or application storage. A tracer that keeps
// anything copies it — the struct by value, Counts and Group element by
// element — before returning.
type Tracer interface {
	Record(ev *Event)
}

// MultiTracer fans one rank's events out to several tracers (e.g. a
// ScalaTrace collector plus an mpiP profiler).
type MultiTracer []Tracer

// Record forwards the event to each tracer in order.
func (m MultiTracer) Record(ev *Event) {
	for _, t := range m {
		t.Record(ev)
	}
}

// callSite hashes the current call path, excluding the runtime's own API
// frames ((*Rank) methods and this helper), producing ScalaTrace's
// per-call-site stack signature. Caller frames — including closures inside
// this package's tests — are hashed by source file and line rather than by
// program counter: the compiler may inline a closure into several call
// sites, duplicating its code, and the signature of one source location
// must stay identical across such copies (and across ranks).
//
// The walk stops at rankMain, the bottom frame of every coroutine rank's
// stack: everything below it belongs to the engine driving the run (runBody
// and iter.Pull's coroutine frames), and including those frames would tie a
// source location's signature to the engine's internals.
//
// The unwinder stops there too. Once a symbolized walk has met rankMain,
// every walk follows the frame-pointer chain from callSite's own frame (kept
// out of line) up to its return address (rankMainPC): a load and a compare
// per physical frame. runtime.Callers is the cold path: before that, on a
// stack deeper than maxSiteFrames, and where getfp has no frame pointer.
//
//go:noinline
func (r *Rank) callSite() uint64 {
	// pcs stays on the stack: only the first visit of a call path hands a
	// copy to the symbolizer, which retains its argument.
	var pcs [maxSiteFrames]uintptr
	n := framePCs(getfp(), rankMainPC.Load(), pcs[:])
	if n == 0 {
		n = runtime.Callers(2, pcs[:])
	}

	// Symbolizing and hashing the frames costs microseconds; with the causal
	// profiler (or a tracer) attached it would run on every operation of
	// every rank. A given raw PC array always symbolizes to the same
	// signature within a process, so memoize on an FNV-1a-style hash of the
	// PCs, a word at a time — after the first visit a call site costs one
	// frame-pointer walk and one hit in the rank's own map, which no other
	// rank touches.
	const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211
	key := uint64(fnvOffset64)
	for _, pc := range pcs[:n] {
		key = (key ^ uint64(pc)) * fnvPrime64
	}
	if site, ok := r.sites[key]; ok {
		return site
	}
	siteCache.RLock()
	site, ok := siteCache.m[key]
	siteCache.RUnlock()
	if !ok {
		site = symbolizeSite(append([]uintptr(nil), pcs[:n]...))
		siteCache.Lock()
		siteCache.m[key] = site
		siteCache.Unlock()
	}
	if r.sites == nil {
		r.sites = make(map[uint64]uint64)
	}
	r.sites[key] = site
	return site
}

// maxSiteFrames bounds a signature to the (logical) frames above the call.
const maxSiteFrames = 48

// rankMainPC is the return address of rankMain's (never inlined) call of the
// body; zero until a symbolized walk has met it.
var rankMainPC atomic.Uintptr

// framePCs stores the return addresses of the frames up from fp, callSite's
// frame pointer, and returns their count once it has stored main, else 0.
func framePCs(fp unsafe.Pointer, main uintptr, pcs []uintptr) int {
	for i := range pcs {
		if fp == nil {
			return 0
		}
		// The saved caller's frame pointer is at fp, the return address above.
		pcs[i] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(fp)))
		if pcs[i] == main {
			return i + 1
		}
		fp = *(*unsafe.Pointer)(fp)
	}
	return 0
}

// symbolizeSite computes the signature of one raw call path, and learns
// rankMainPC from it. Physical frames symbolize as runtime.Callers' logical
// ones do once it skips the compiler's method wrappers, which Callers leaves
// out, and cuts at maxSiteFrames logical frames, where Callers stops.
func symbolizeSite(pcs []uintptr) uint64 {
	frames := runtime.CallersFrames(pcs)
	h := fnv.New64a()
	var buf [8]byte
	for depth, more := 0, true; more && depth < maxSiteFrames; {
		var f runtime.Frame
		f, more = frames.Next()
		if strings.HasSuffix(f.Function, "internal/mpi.rankMain") {
			// A frame's PC is the call instruction's; the walk holds the
			// return address, one past it.
			if slices.Contains(pcs, f.PC+1) {
				rankMainPC.Store(f.PC + 1)
			}
			break
		}
		if f.File == "<autogenerated>" {
			continue // a method wrapper
		}
		depth++
		if f.Function != "" && !strings.Contains(f.Function, "internal/mpi.(*Rank).") {
			h.Write([]byte(f.File))
			binary.LittleEndian.PutUint64(buf[:], uint64(f.Line))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// siteCache memoizes callSite results per raw PC array across all worlds,
// behind each rank's own front map (Rank.sites): a rank reads it once per
// call path, and the first rank of the process to get there writes it, so
// concurrently running worlds share no cache line on the per-operation path.
var siteCache = struct {
	sync.RWMutex
	m map[uint64]uint64
}{m: make(map[uint64]uint64)}
