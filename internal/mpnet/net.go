// Package mpnet lowers a compressed communication trace into an
// MP-net-style formal model — per-rank sequence places, send/receive/
// collective transitions, and channel places keyed by (src, dst, tag,
// comm) — and model-checks it. The model follows "MP net as Abstract
// Model of Communication for Message-passing Applications": each rank is
// a sequential net whose i-th transition moves the rank's control token
// from sequence place i to i+1, sends produce a token on their channel
// place, receives consume one, and a wildcard (MPI_ANY_SOURCE) receive
// is a family of transitions — one per statically enabled source — of
// which exactly one fires.
//
// The companion checker (check.go) explores the net's executions
// exhaustively at small scale, proving the deadlock-freedom and
// wildcard-resolution soundness that the paper's Algorithm 2 only
// assumes via an informal sufficient condition; crossvalidate.go ties
// the verdict back to internal/wildcard and reconstructs replayable
// counterexample traces.
package mpnet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// EvKind classifies an expanded event by how the net (and the checker)
// treats it.
type EvKind uint8

const (
	// EvLocal is a pass-through event without communication semantics
	// (Init and other local operations).
	EvLocal EvKind = iota
	// EvSend produces one token on the event's channel place. Sends
	// complete eagerly (unbounded buffering), matching the model under
	// which Algorithm 2 resolves wildcards.
	EvSend
	// EvRecv is a blocking receive with a concrete source: it consumes
	// one token from one of its candidate channels.
	EvRecv
	// EvRecvAny is a blocking wildcard receive: a transition family, one
	// member per enabled source.
	EvRecvAny
	// EvIrecv posts a nonblocking receive (concrete or wildcard — see
	// Event.Wild); the matching token is consumed when available, the
	// rank does not block until a wait demands it.
	EvIrecv
	// EvWait completes the oldest outstanding nonblocking request.
	EvWait
	// EvWaitall completes every outstanding request.
	EvWaitall
	// EvColl is a collective rendezvous: a joint transition consuming
	// every member's control token at once.
	EvColl
)

var evKindNames = [...]string{
	EvLocal: "local", EvSend: "send", EvRecv: "recv", EvRecvAny: "recv-any",
	EvIrecv: "irecv", EvWait: "wait", EvWaitall: "waitall", EvColl: "coll",
}

func (k EvKind) String() string {
	if int(k) < len(evKindNames) {
		return evKindNames[k]
	}
	return fmt.Sprintf("EvKind(%d)", int(k))
}

// ChanKey identifies a channel place: the ordered message buffer from
// world rank Src to world rank Dst carrying tag Tag on communicator
// CommID. (Keying on the communicator is a refinement over the
// resolver's (src, tag)-only matching; the two agree on every trace
// whose point-to-point traffic stays on one communicator, which all
// bundled kernels do.)
type ChanKey struct {
	Src, Dst, Tag, CommID int
}

func (k ChanKey) String() string {
	return fmt.Sprintf("ch[%d->%d tag=%d comm=%d]", k.Src, k.Dst, k.Tag, k.CommID)
}

// Event is one transition of a rank's sequence net: the i-th event of
// rank r moves r's control token from sequence place (r,i) to (r,i+1),
// plus the channel-place arcs described by Kind.
type Event struct {
	Kind EvKind
	Op   mpi.Op
	Site uint64
	// Peer is the world-rank peer: destination for sends, source for
	// concrete receives, mpi.AnySource for wildcards.
	Peer   int
	Tag    int
	Size   int
	CommID int
	// Chan is the producing channel index for sends; -1 when the
	// destination is outside the world (the token is dropped, mirroring
	// the resolver).
	Chan int32
	// Cands are the candidate channel indices a concrete receive may
	// consume from (one, except under MPI_ANY_TAG). Empty means no send
	// in the whole trace can ever satisfy this receive.
	Cands []int32
	// Wild marks wildcard receives; Sources lists the statically enabled
	// world sources (senders with at least one compatible channel) and
	// SrcChans the compatible channels per source, aligned with Sources.
	Wild     bool
	Sources  []int
	SrcChans [][]int32
	// ComputeUS is the mean computation time charged before the
	// operation (first-iteration sample where distinguished).
	ComputeUS float64
	// FirstIter records whether this instance came from a loop's first
	// iteration (selects the compute sample, mirroring the resolver's
	// output leaves).
	FirstIter bool
	// Leaf is the compressed-trace descriptor this instance expanded
	// from (shared across instances; do not mutate).
	Leaf *trace.RSD
}

// Net is the MP-net lowered from one trace: per-rank event sequences
// over a shared channel-place table.
type Net struct {
	N     int
	Trace *trace.Trace
	// Procs[r] is rank r's expanded transition sequence.
	Procs [][]Event
	// Chans is the channel-place table; Event.Chan/Cands/SrcChans index
	// into it. The initial marking is empty channels and every rank's
	// control token on sequence place 0.
	Chans []ChanKey
	// Events is the total expanded event count, Wildcards the number of
	// wildcard receive instances.
	Events    int
	Wildcards int
}

// Options bound the exporter and the checker.
type Options struct {
	// MaxEvents caps the total expanded event count across ranks
	// (DefaultMaxEvents when 0). Compressed traces expand loop bodies,
	// so hostile uploads could otherwise blow up memory.
	MaxEvents int
	// MaxStates caps the checker's explored state count
	// (DefaultMaxStates when 0); see Verdict.Exhaustive.
	MaxStates int
}

// Defaults for Options; large enough for every bundled kernel at <=16
// ranks, small enough that hostile uploads stay bounded.
const (
	DefaultMaxEvents = 1 << 19
	DefaultMaxStates = 1 << 20
)

// ErrNetTooLarge is FromTrace's refusal of a trace whose net the checker
// cannot index: more than MaxRanks ranks, MaxRankEvents events on one rank
// or MaxChannels channels (see the sleep-key packing in check.go).
var ErrNetTooLarge = errors.New("mpnet: net too large to check")

func (o *Options) maxEvents() int {
	if o == nil || o.MaxEvents <= 0 {
		return DefaultMaxEvents
	}
	return o.MaxEvents
}

func (o *Options) maxStates() int {
	if o == nil || o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

// FromTrace lowers t into its MP-net. The expansion walks every rank's
// compressed sequence with a trace cursor (loops unrolled), so the net
// is finite and exact; opts.MaxEvents bounds the unrolling.
func FromTrace(t *trace.Trace, opts *Options) (*Net, error) {
	if t == nil || t.N <= 0 {
		return nil, fmt.Errorf("mpnet: empty trace")
	}
	if t.N > MaxRanks {
		return nil, fmt.Errorf("%w: %d ranks, the checker holds %d", ErrNetTooLarge, t.N, MaxRanks)
	}
	maxEvents := opts.maxEvents()
	net := &Net{N: t.N, Trace: t, Procs: make([][]Event, t.N)}

	// Pass 1: expand every rank's stream and collect the channel table
	// from the send side. Channels exist only where some send produces
	// into them; a receive whose channel does not exist can never match.
	chanIdx := map[ChanKey]int32{}
	total := 0
	for rank := 0; rank < t.N; rank++ {
		g := t.GroupOf(rank)
		if g == nil {
			return nil, fmt.Errorf("mpnet: rank %d missing from trace", rank)
		}
		cur := trace.NewCursor(g.Seq, rank)
		for !cur.Done() {
			rsd := cur.Cur()
			first := cur.InnermostIter() == 0
			ev := Event{
				Op: rsd.Op, Site: rsd.Site, Tag: rsd.Tag, Size: rsd.Size,
				CommID: rsd.CommID, Chan: -1, Peer: mpi.NoPeer,
				ComputeUS: rsd.ComputeMeanAt(first), FirstIter: first,
				Leaf: rsd,
			}
			switch {
			case rsd.Op.IsSendSide():
				ev.Kind = EvSend
				ev.Peer = rsd.WorldPeerFor(rank, t)
				if ev.Peer >= 0 && ev.Peer < t.N {
					key := ChanKey{Src: rank, Dst: ev.Peer, Tag: rsd.Tag, CommID: rsd.CommID}
					ci, ok := chanIdx[key]
					if !ok {
						ci = int32(len(net.Chans))
						chanIdx[key] = ci
						net.Chans = append(net.Chans, key)
					}
					ev.Chan = ci
				}
			case rsd.Op == mpi.OpRecv:
				ev.Peer = rsd.WorldPeerFor(rank, t)
				if ev.Peer == mpi.AnySource {
					ev.Kind, ev.Wild = EvRecvAny, true
					net.Wildcards++
				} else {
					ev.Kind = EvRecv
				}
			case rsd.Op == mpi.OpIrecv:
				ev.Kind = EvIrecv
				ev.Peer = rsd.WorldPeerFor(rank, t)
				if ev.Peer == mpi.AnySource {
					ev.Wild = true
					net.Wildcards++
				}
			case rsd.Op == mpi.OpWait:
				ev.Kind = EvWait
			case rsd.Op == mpi.OpWaitall:
				ev.Kind = EvWaitall
			case rsd.Op.IsCollective():
				ev.Kind = EvColl
			default:
				ev.Kind = EvLocal
			}
			net.Procs[rank] = append(net.Procs[rank], ev)
			total++
			if total > maxEvents {
				return nil, fmt.Errorf("mpnet: trace expands past %d events (MaxEvents)", maxEvents)
			}
			if len(net.Procs[rank]) > MaxRankEvents {
				return nil, fmt.Errorf("%w: rank %d expands past %d events", ErrNetTooLarge, rank, MaxRankEvents)
			}
			cur.Advance()
		}
	}
	net.Events = total

	if len(net.Chans) > MaxChannels {
		return nil, fmt.Errorf("%w: %d channels, the checker holds %d", ErrNetTooLarge, len(net.Chans), MaxChannels)
	}

	// Pass 2: wire the receive side to the channel table built above. What
	// a receive may consume depends only on who posts it, on which
	// communicator and tag, and from whom, so the channel table is scanned
	// once per such shape and every instance shares the result read-only
	// (LU posts 9,600 wildcard instances of a few dozen shapes).
	type shape struct{ rank, comm, tag, peer int }
	wired := map[shape]*Event{}
	for rank := 0; rank < t.N; rank++ {
		procs := net.Procs[rank]
		for i := range procs {
			ev := &procs[i]
			if ev.Kind != EvRecv && ev.Kind != EvRecvAny && ev.Kind != EvIrecv {
				continue
			}
			sh := shape{rank, ev.CommID, ev.Tag, ev.Peer}
			first, ok := wired[sh]
			if !ok {
				net.wire(rank, ev)
				wired[sh] = ev
				continue
			}
			ev.Cands, ev.Sources, ev.SrcChans = first.Cands, first.Sources, first.SrcChans
		}
	}
	return net, nil
}

// wire computes what rank's receive ev may consume: the candidate channels
// of a concrete receive, or a wildcard's enabled sources (every sender
// with a compatible channel, ascending) and each one's channels.
func (n *Net) wire(rank int, ev *Event) {
	var chs []int32
	for ci, key := range n.Chans {
		if key.Dst == rank && key.CommID == ev.CommID && (ev.Tag == mpi.AnyTag || key.Tag == ev.Tag) &&
			(ev.Wild || key.Src == ev.Peer) {
			chs = append(chs, int32(ci))
		}
	}
	if !ev.Wild {
		ev.Cands = chs
		return
	}
	// Group the compatible channels by source; the stable sort keeps each
	// source's channels in table order.
	slices.SortStableFunc(chs, func(a, b int32) int { return cmp.Compare(n.Chans[a].Src, n.Chans[b].Src) })
	for lo := 0; lo < len(chs); {
		hi := lo + 1
		for hi < len(chs) && n.Chans[chs[hi]].Src == n.Chans[chs[lo]].Src {
			hi++
		}
		ev.Sources = append(ev.Sources, n.Chans[chs[lo]].Src)
		ev.SrcChans = append(ev.SrcChans, chs[lo:hi:hi])
		lo = hi
	}
}
