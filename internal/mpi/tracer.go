package mpi

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
// Implementations must be safe for use from the rank's goroutine only; the
// runtime creates one Tracer per rank.
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
// The walk stops at rankMain, the shared bottom frame of every rank's
// stack: everything below it belongs to whichever engine is driving the
// run (the goroutine runtime's spawn wrapper; runBody and iter.Pull's
// coroutine frames under the event engine), and including those frames
// would give the same source location different signatures under different
// engines.
//
// The unwinder stops there too. Once a symbolized walk has met rankMain its
// program counter is known (rankMainPC), and the rank remembers the deepest
// position it has seen it at: the next walk asks runtime.Callers for that
// many frames and is taken only if rankMain's counter is among them — the
// frames above are then the whole call path. A deeper stack, or a rank that
// has not met rankMain yet, gets the full walk.
func (r *Rank) callSite() uint64 {
	// pcs stays on the stack: only the first visit of a call path hands a
	// copy to the symbolizer, which retains its argument.
	var pcs [48]uintptr
	main := rankMainPC.Load()
	n, at := 0, -1 // position of rankMain's frame in pcs[:n]
	if main != 0 && r.mainDepth > 0 {
		n = runtime.Callers(2, pcs[:r.mainDepth])
		at = slices.Index(pcs[:n], main)
	}
	if at < 0 {
		n = runtime.Callers(2, pcs[:])
		at = slices.Index(pcs[:n], main) // -1 while main is still zero
	}
	if at >= 0 {
		n = at + 1
		r.mainDepth = max(r.mainDepth, n)
	}

	// Symbolizing and hashing the frames costs microseconds; with the causal
	// profiler (or a tracer) attached it would run on every operation of
	// every rank. A given raw PC array always symbolizes to the same
	// signature within a process, so memoize on an FNV-1a-style hash of the
	// PCs, a word at a time — after the first visit a call site costs one
	// stack walk and one hit in the rank's own map, which no other rank
	// touches.
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

// rankMainPC is what runtime.Callers reports for rankMain's frame under an
// application body: the return address of its one call of the body (rankMain
// is never inlined). Zero until a symbolized walk has met the frame.
var rankMainPC atomic.Uintptr

// symbolizeSite computes the signature of one raw call path, and learns
// rankMainPC from it.
func symbolizeSite(pcs []uintptr) uint64 {
	frames := runtime.CallersFrames(pcs)
	h := fnv.New64a()
	var buf [8]byte
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "internal/mpi.rankMain") {
			// A frame's PC is the call instruction's; the walk holds the
			// return address, one past it.
			if slices.Contains(pcs, f.PC+1) {
				rankMainPC.Store(f.PC + 1)
			}
			break
		}
		if f.Function != "" && !isRuntimeFrame(f.Function) {
			h.Write([]byte(f.File))
			binary.LittleEndian.PutUint64(buf[:], uint64(f.Line))
			h.Write(buf[:])
		}
		if !more {
			break
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

func isRuntimeFrame(fn string) bool {
	return strings.Contains(fn, "internal/mpi.(*Rank).")
}
