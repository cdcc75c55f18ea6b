// Package trace is the reproduction's ScalaTrace: it observes a run through
// the runtime's PMPI-style hook and builds a lossless, pattern-compressed
// communication trace. Per-rank event streams are folded on the fly into
// RSDs nested in power-RSDs (loops); at the end of the run the per-rank
// traces are merged across ranks, generalizing peer ranks into
// rank-relative offsets so that the trace stays near-constant in size
// regardless of the number of ranks. Computation time between MPI calls is
// compressed into per-call-site histograms.
package trace

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/taskset"
)

// ParamKind says how a peer rank is expressed in a merged RSD.
type ParamKind int

const (
	// ParamNone marks operations without a peer (collectives, waits).
	ParamNone ParamKind = iota
	// ParamAbs is an absolute communicator-relative rank shared by all
	// participants (e.g. "everyone sends to task 0").
	ParamAbs
	// ParamRel is an offset from the caller's communicator rank, modulo the
	// communicator size (e.g. "task t sends to task t+1").
	ParamRel
	// ParamXor is a bitwise offset from the caller's communicator rank
	// (peer = rank XOR value), the pattern of butterfly exchanges.
	ParamXor
	// ParamAny is the MPI_ANY_SOURCE wildcard.
	ParamAny
	// ParamVec marks an irregular per-rank peer pattern; the concrete
	// values live in the RSD's PeerVec, ordered by world rank.
	ParamVec
)

// Param is a generalizable integer parameter: the peer rank of a
// point-to-point operation, expressed either absolutely or relative to the
// calling rank.
type Param struct {
	Kind  ParamKind
	Value int
}

// NoParam is the Param for operations without a peer.
var NoParam = Param{Kind: ParamNone}

// AbsParam returns an absolute peer parameter.
func AbsParam(v int) Param { return Param{Kind: ParamAbs, Value: v} }

// RelParam returns a rank-relative peer parameter (offset mod comm size).
func RelParam(off int) Param { return Param{Kind: ParamRel, Value: off} }

// XorParam returns a butterfly peer parameter (peer = rank XOR value).
func XorParam(v int) Param { return Param{Kind: ParamXor, Value: v} }

// VecParam marks the peer as per-rank irregular (see RSD.PeerVec).
var VecParam = Param{Kind: ParamVec}

// AnyParam is the wildcard-source parameter.
var AnyParam = Param{Kind: ParamAny}

// Resolve computes the concrete communicator-relative peer for a caller at
// commRank in a communicator of commSize.
func (p Param) Resolve(commRank, commSize int) int {
	switch p.Kind {
	case ParamAbs:
		return p.Value
	case ParamRel:
		if commSize <= 0 {
			return p.Value
		}
		v := (commRank + p.Value) % commSize
		if v < 0 {
			v += commSize
		}
		return v
	case ParamXor:
		return commRank ^ p.Value
	case ParamAny:
		return mpi.AnySource
	default:
		return mpi.NoPeer
	}
}

func (p Param) String() string {
	switch p.Kind {
	case ParamNone:
		return "-"
	case ParamAbs:
		return fmt.Sprintf("abs%d", p.Value)
	case ParamRel:
		if p.Value >= 0 {
			return fmt.Sprintf("rel+%d", p.Value)
		}
		return fmt.Sprintf("rel%d", p.Value)
	case ParamXor:
		return fmt.Sprintf("xor%d", p.Value)
	case ParamAny:
		return "any"
	case ParamVec:
		return "vec"
	default:
		return "?"
	}
}

// Node is one element of a compressed trace: either an *RSD (a leaf event
// descriptor) or a *Loop (a power-RSD).
type Node interface {
	// Hash returns a structural hash ignoring rank sets and timing, used to
	// accelerate loop detection and merging.
	Hash() uint64
	// EventCount returns the number of concrete events the node expands to
	// for a single participating rank.
	EventCount() int
	// clone returns a deep copy.
	clone() Node
}

// RSD is a regular section descriptor: one MPI operation at one call site,
// performed by a set of ranks with (possibly generalized) parameters.
type RSD struct {
	Op   mpi.Op
	Site uint64
	// Ranks is the set of participating world ranks.
	Ranks taskset.Set

	CommID   int
	CommSize int

	// Peer is the communicator-relative peer (dest for sends, source for
	// receives), possibly generalized relative to the caller's rank.
	Peer Param
	// PeerVec holds per-participant comm-relative peers when Peer.Kind is
	// ParamVec, ordered by the participants' world ranks.
	PeerVec  []int
	Wildcard bool // receive was posted with MPI_ANY_SOURCE
	Tag      int
	Size     int
	Counts   []int
	Root     int // comm-relative root for rooted collectives, -1 otherwise

	// Group and NewCommID describe a communicator created by
	// CommSplit/CommDup.
	Group     []int
	NewCommID int

	// Compute aggregates the computation time observed immediately before
	// this operation, across iterations and ranks. It is nil while the RSD
	// still holds only the single sample recorded at collection time; use
	// ComputeStats / ComputeMean rather than reading the field directly.
	Compute *stats.Histogram
	// FirstCompute separately aggregates the observations from each loop's
	// *first* iteration, which ScalaTrace keeps apart from the steady-state
	// iterations because cold caches make it systematically longer (Ratn et
	// al., ICS 2008; the paper's Section 3.1). It is nil for leaves that
	// were never folded into a loop.
	FirstCompute *stats.Histogram

	sample    float64
	hasSample bool

	hash    uint64
	hashSet bool
}

// SetComputeSample records the single compute-time observation of a freshly
// collected event without allocating a histogram; folding materializes the
// histogram lazily. This keeps uncompressed trace memory small.
func (r *RSD) SetComputeSample(v float64) {
	r.sample, r.hasSample = v, true
}

// ComputeStats returns the histogram of compute times before this operation,
// materializing it from the pending sample if necessary. It returns an empty
// histogram when nothing was recorded.
func (r *RSD) ComputeStats() *stats.Histogram {
	if r.Compute == nil {
		r.Compute = stats.NewHistogram()
	}
	if r.hasSample {
		r.Compute.Add(r.sample)
		r.hasSample = false
	}
	return r.Compute
}

// ComputeMean returns the mean compute time before this operation in
// microseconds.
func (r *RSD) ComputeMean() float64 {
	if r.Compute == nil && r.hasSample {
		return r.sample
	}
	if r.Compute == nil {
		return 0
	}
	return r.ComputeStats().Mean()
}

// mergeComputeFrom pools src's compute-time observations into r
// (steady-state and first-iteration pools separately).
func (r *RSD) mergeComputeFrom(src *RSD) {
	switch {
	case src.Compute != nil:
		r.ComputeStats().Merge(src.ComputeStats())
	case src.hasSample:
		// A leaf still holding only its collection-time sample — every
		// event a fold absorbs. Adding the sample leaves r bit-equal to
		// merging a one-sample histogram of it, without building one.
		r.ComputeStats().Add(src.sample)
	}
	if src.FirstCompute != nil && !src.FirstCompute.Empty() {
		if r.FirstCompute == nil {
			r.FirstCompute = stats.NewHistogram()
		}
		r.FirstCompute.Merge(src.FirstCompute)
	}
}

// demoteToFirst moves the leaf's current compute observations into the
// first-iteration pool; loop folding calls it on the body copy that came
// from the loop's first iteration. An empty pool takes the histogram itself.
func (r *RSD) demoteToFirst() {
	h := r.ComputeStats()
	if h.Empty() {
		return
	}
	if r.FirstCompute == nil {
		r.FirstCompute, r.Compute = h, nil
		return
	}
	r.FirstCompute.Merge(h)
	h.Reset()
}

// FirstComputeMean returns the mean first-iteration compute time, falling
// back to the steady-state mean when no first-iteration pool exists.
func (r *RSD) FirstComputeMean() float64 {
	if r.FirstCompute == nil || r.FirstCompute.Empty() {
		return r.ComputeMean()
	}
	return r.FirstCompute.Mean()
}

// ComputeMeanAt returns the compute time to replay for one event instance:
// the first-iteration mean when firstIter holds, the steady-state mean
// otherwise.
func (r *RSD) ComputeMeanAt(firstIter bool) float64 {
	if firstIter {
		return r.FirstComputeMean()
	}
	return r.ComputeMean()
}

// PeerIndexer supplies communicator translation for PeerFor; *Trace
// implements it.
type PeerIndexer interface {
	CommRankOf(commID, worldRank int) (int, bool)
}

// PeerFor returns the concrete communicator-relative peer of the given
// participant world rank, handling every parameter kind including the
// per-rank vector form. It returns mpi.AnySource for wildcards and
// mpi.NoPeer for peerless operations.
func (r *RSD) PeerFor(worldRank int, idx PeerIndexer) int {
	if r.Peer.Kind == ParamVec {
		if i, ok := r.Ranks.IndexOf(worldRank); ok && i < len(r.PeerVec) {
			return r.PeerVec[i]
		}
		return mpi.NoPeer
	}
	me, ok := idx.CommRankOf(r.CommID, worldRank)
	if !ok {
		me = worldRank
	}
	return r.Peer.Resolve(me, r.CommSize)
}

// WorldPeerFor is Section 4.2's translation for a point-to-point leaf: the
// world ("absolute") rank of the given participant's peer.
func (r *RSD) WorldPeerFor(worldRank int, t *Trace) int {
	return t.worldRank(r.CommID, r.PeerFor(worldRank, t))
}

// WorldRoot is the same translation for a rooted collective's root; a leaf
// without a root names world rank 0.
func (r *RSD) WorldRoot(t *Trace) int {
	if r.Root < 0 {
		return 0
	}
	return t.worldRank(r.CommID, r.Root)
}

// worldRank translates a communicator rank to a world rank. A rank the
// communicator table cannot translate — mpi.AnySource, mpi.NoPeer, a rank of
// an unknown communicator — is returned as it stands.
func (t *Trace) worldRank(commID, commRank int) int {
	if w, ok := t.WorldRankOf(commID, commRank); ok {
		return w
	}
	return commRank
}

// MeanCount is Table 1's "averaged message size" of a v-collective: the mean
// of the per-member Counts, or Size for a leaf that carries none.
func (r *RSD) MeanCount() int {
	if len(r.Counts) == 0 {
		return r.Size
	}
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	return total / len(r.Counts)
}

// PerPeerSize is the average per-pair volume of an Alltoallv leaf, whose Size
// carries the caller's total send volume.
func (r *RSD) PerPeerSize() int {
	if r.CommSize > 0 {
		return r.Size / r.CommSize
	}
	return r.Size
}

// SegmentSize is the size of the i-th of a Reduce_scatter leaf's segments
// over a communicator of the given number of members: Counts[i], or an even
// share of Size for a member the counts do not reach.
func (r *RSD) SegmentSize(i, members int) int {
	if i < len(r.Counts) {
		return r.Counts[i]
	}
	return r.Size / members
}

// CopyFor overwrites dst with a copy of r performed by ranks alone, carrying
// one compute-time sample — how Algorithms 1 and 2 and the counterexample
// builder re-emit a leaf for the streams they re-compress. An irregular
// (vector) peer becomes the concrete peer of the participant rank; the
// re-merge generalizes it again where it can. Everything else, Wildcard
// included, is r's.
func (r *RSD) CopyFor(dst *RSD, rank int, ranks taskset.Set, idx PeerIndexer, computeUS float64) {
	peer := r.Peer
	if peer.Kind == ParamVec {
		peer = AbsParam(r.PeerFor(rank, idx))
	}
	*dst = RSD{
		Op:        r.Op,
		Site:      r.Site,
		Ranks:     ranks,
		CommID:    r.CommID,
		CommSize:  r.CommSize,
		Peer:      peer,
		Wildcard:  r.Wildcard,
		Tag:       r.Tag,
		Size:      r.Size,
		Counts:    append([]int(nil), r.Counts...),
		Root:      r.Root,
		Group:     append([]int(nil), r.Group...),
		NewCommID: r.NewCommID,
	}
	dst.SetComputeSample(computeUS)
}

// Loop is a power-RSD: a counted repetition of a node sequence.
type Loop struct {
	Iters int
	Body  []Node

	hash    uint64
	hashSet bool
}

// EventCount implements Node.
func (r *RSD) EventCount() int { return 1 }

// EventCount implements Node.
func (l *Loop) EventCount() int {
	n := 0
	for _, b := range l.Body {
		n += b.EventCount()
	}
	return n * l.Iters
}

// Hash implements Node.
func (r *RSD) Hash() uint64 {
	if r.hashSet {
		return r.hash
	}
	h := uint64(fnvOffset64)
	for _, v := range [...]int{int(r.Op), int(r.Site), r.CommID, r.CommSize,
		int(r.Peer.Kind), r.Peer.Value, boolInt(r.Wildcard),
		r.Tag, r.Size, r.Root, r.NewCommID, len(r.Counts), len(r.Group), len(r.PeerVec)} {
		h = fnvMix(h, uint64(v))
	}
	for _, vs := range [...][]int{r.Counts, r.Group, r.PeerVec} {
		for _, v := range vs {
			h = fnvMix(h, uint64(v))
		}
	}
	r.hash, r.hashSet = h, true
	return r.hash
}

// FNV-1a, 64 bit: the node hashes and the merge signature are the hash/fnv
// digest of their fields as 8-byte little-endian words, computed inline.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds the eight little-endian bytes of v into the FNV-1a state h.
// A zero byte's step is a bare multiplication by the prime, so the zero high
// bytes of a small value — what most fields hold — go in as one
// multiplication by a power of it.
func fnvMix(h, v uint64) uint64 {
	zeros := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime64
		zeros--
	}
	return h * fnvPrimePow[zeros]
}

// fnvPrimePow[k] is fnvPrime64 to the k-th power, modulo 2^64.
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// Hash implements Node.
func (l *Loop) Hash() uint64 {
	if l.hashSet {
		return l.hash
	}
	h := fnvMix(fnvOffset64, 0x10097) // loop marker
	h = fnvMix(h, uint64(l.Iters))
	for _, b := range l.Body {
		h = fnvMix(h, b.Hash())
	}
	l.hash, l.hashSet = h, true
	return l.hash
}

func (l *Loop) invalidate() { l.hashSet = false }

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// StructEqual reports whether two nodes are structurally identical — same
// operations, call sites, parameters and loop shapes — ignoring rank sets
// and compute-time histograms. This is the equality used for loop folding
// within one rank's trace.
func StructEqual(a, b Node) bool {
	switch x := a.(type) {
	case *RSD:
		y, ok := b.(*RSD)
		if !ok {
			return false
		}
		return rsdStructEqual(x, y)
	case *Loop:
		y, ok := b.(*Loop)
		if !ok {
			return false
		}
		if x.Iters != y.Iters || len(x.Body) != len(y.Body) {
			return false
		}
		for i := range x.Body {
			if !StructEqual(x.Body[i], y.Body[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func rsdStructEqual(x, y *RSD) bool {
	if x.Op != y.Op || x.Site != y.Site || x.CommID != y.CommID ||
		x.CommSize != y.CommSize || x.Peer != y.Peer ||
		x.Wildcard != y.Wildcard || x.Tag != y.Tag || x.Size != y.Size ||
		x.Root != y.Root || x.NewCommID != y.NewCommID {
		return false
	}
	if len(x.Counts) != len(y.Counts) || len(x.Group) != len(y.Group) ||
		len(x.PeerVec) != len(y.PeerVec) {
		return false
	}
	for i := range x.Counts {
		if x.Counts[i] != y.Counts[i] {
			return false
		}
	}
	for i := range x.Group {
		if x.Group[i] != y.Group[i] {
			return false
		}
	}
	for i := range x.PeerVec {
		if x.PeerVec[i] != y.PeerVec[i] {
			return false
		}
	}
	return true
}

// clone implements Node.
func (r *RSD) clone() Node {
	c := *r
	c.Counts = append([]int(nil), r.Counts...)
	c.Group = append([]int(nil), r.Group...)
	c.PeerVec = append([]int(nil), r.PeerVec...)
	if r.Compute != nil {
		c.Compute = r.Compute.Clone()
	}
	if r.FirstCompute != nil {
		c.FirstCompute = r.FirstCompute.Clone()
	}
	return &c
}

// clone implements Node.
func (l *Loop) clone() Node {
	c := &Loop{Iters: l.Iters, Body: make([]Node, len(l.Body))}
	for i, b := range l.Body {
		c.Body[i] = b.clone()
	}
	return c
}

// absorb merges the timing histograms and rank sets of src into dst.
// dst and src must be structurally equal.
func absorb(dst, src Node) {
	switch d := dst.(type) {
	case *RSD:
		s := src.(*RSD)
		d.mergeComputeFrom(s)
		d.Ranks = d.Ranks.Union(s.Ranks)
	case *Loop:
		s := src.(*Loop)
		for i := range d.Body {
			absorb(d.Body[i], s.Body[i])
		}
	}
}

// Leaves calls f for every leaf of seq in order, entering each loop body
// once — the O(r) walk of the compressed form.
func Leaves(seq []Node, f func(*RSD)) {
	for _, n := range seq {
		switch x := n.(type) {
		case *RSD:
			f(x)
		case *Loop:
			Leaves(x.Body, f)
		}
	}
}

// ContainsRank reports whether the node expands to at least one event for
// the given world rank.
func ContainsRank(n Node, rank int) bool {
	switch x := n.(type) {
	case *RSD:
		return x.Ranks.Contains(rank)
	case *Loop:
		for _, b := range x.Body {
			if ContainsRank(b, rank) {
				return true
			}
		}
	}
	return false
}

func (r *RSD) String() string {
	s := fmt.Sprintf("{%s %s peer=%s tag=%d size=%d comm=%d", r.Ranks, r.Op, r.Peer, r.Tag, r.Size, r.CommID)
	if r.Root >= 0 {
		s += fmt.Sprintf(" root=%d", r.Root)
	}
	if r.Wildcard {
		s += " wildcard"
	}
	return s + "}"
}

func (l *Loop) String() string {
	return fmt.Sprintf("loop{%d x %d nodes}", l.Iters, len(l.Body))
}
