package mpnet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// The oracle: an explorer that shares nothing with check.go but the
// lowered event list. It keeps a marking in plain slices, copies it whole
// per branch, fires deterministic transitions one rank at a time until
// nothing moves, and then tries every enabled wildcard match depth-first —
// no sleep sets, no visited set, no canonical order, no reuse. Receive
// compatibility is recomputed from the events' peer/tag/communicator and
// the channel keys, not read from the Cands/Sources the lowering wired.

type naiveSlot struct {
	ev      int
	matched bool
}

type naiveState struct {
	pc    []int
	chans []int
	out   [][]naiveSlot
}

func (s *naiveState) clone() *naiveState {
	c := &naiveState{
		pc:    append([]int(nil), s.pc...),
		chans: append([]int(nil), s.chans...),
		out:   make([][]naiveSlot, len(s.out)),
	}
	for r, q := range s.out {
		c.out[r] = append([]naiveSlot(nil), q...)
	}
	return c
}

type naiveMatch struct {
	rank, ev, ch int
}

type naive struct {
	net *Net
	// leaves counts the maximal executions visited, to size the test.
	leaves int
}

func (nv *naive) start() *naiveState {
	return &naiveState{
		pc:    make([]int, nv.net.N),
		chans: make([]int, len(nv.net.Chans)),
		out:   make([][]naiveSlot, nv.net.N),
	}
}

// accepts reports whether rank's receive ev may take a message from
// channel ch.
func (nv *naive) accepts(rank int, ev *Event, ch int) bool {
	k := nv.net.Chans[ch]
	if k.Dst != rank || k.CommID != ev.CommID || (ev.Tag != mpi.AnyTag && ev.Tag != k.Tag) {
		return false
	}
	return ev.Wild || ev.Peer == k.Src
}

// posted lists rank's unmatched receives in posting order: outstanding
// nonblocking ones, then a blocking receive at the control position.
func (nv *naive) posted(s *naiveState, rank int) []int {
	var evs []int
	for _, sl := range s.out[rank] {
		if k := nv.net.Procs[rank][sl.ev].Kind; !sl.matched && k == EvIrecv {
			evs = append(evs, sl.ev)
		}
	}
	if pc := s.pc[rank]; pc < len(nv.net.Procs[rank]) {
		if k := nv.net.Procs[rank][pc].Kind; k == EvRecv || k == EvRecvAny {
			evs = append(evs, pc)
		}
	}
	return evs
}

// firstTaker returns the earliest-posted unmatched receive of rank that
// accepts channel ch, or -1: MPI's non-overtaking rule gives it the
// message.
func (nv *naive) firstTaker(s *naiveState, rank, ch int) int {
	for _, e := range nv.posted(s, rank) {
		if nv.accepts(rank, &nv.net.Procs[rank][e], ch) {
			return e
		}
	}
	return -1
}

func (nv *naive) markMatched(s *naiveState, rank, ev int) {
	if s.pc[rank] == ev && nv.net.Procs[rank][ev].Kind != EvIrecv {
		s.pc[rank]++ // the blocking receive returns
		return
	}
	for i := range s.out[rank] {
		if s.out[rank][i].ev == ev {
			s.out[rank][i].matched = true
			return
		}
	}
	panic("naive: matched receive is not posted")
}

// deliver hands every available message to a concrete receive that is
// first in line for it; reports whether anything moved.
func (nv *naive) deliver(s *naiveState) bool {
	moved := false
	for ch, k := range nv.net.Chans {
		for s.chans[ch] > 0 {
			e := nv.firstTaker(s, k.Dst, ch)
			if e < 0 || nv.net.Procs[k.Dst][e].Wild {
				break
			}
			s.chans[ch]--
			nv.markMatched(s, k.Dst, e)
			moved = true
		}
	}
	return moved
}

// advance fires rank's next transition if it is enabled and not a receive
// (deliver completes those).
func (nv *naive) advance(s *naiveState, rank int) bool {
	pc := s.pc[rank]
	if pc >= len(nv.net.Procs[rank]) {
		return false
	}
	ev := &nv.net.Procs[rank][pc]
	switch ev.Kind {
	case EvLocal:
	case EvSend:
		s.chans[ev.Chan]++
		if ev.Op == mpi.OpIsend {
			s.out[rank] = append(s.out[rank], naiveSlot{ev: pc, matched: true})
		}
	case EvIrecv:
		s.out[rank] = append(s.out[rank], naiveSlot{ev: pc})
	case EvRecv, EvRecvAny:
		return false
	case EvWait:
		if q := s.out[rank]; len(q) > 0 {
			if !q[0].matched {
				return false
			}
			s.out[rank] = append([]naiveSlot(nil), q[1:]...)
		}
	case EvWaitall:
		for _, sl := range s.out[rank] {
			if !sl.matched {
				return false
			}
		}
		s.out[rank] = nil
	case EvColl:
		group := nv.net.Trace.CommGroup(ev.CommID)
		for _, m := range group {
			if s.pc[m] >= len(nv.net.Procs[m]) {
				return false
			}
			if e := &nv.net.Procs[m][s.pc[m]]; e.Kind != EvColl || e.CommID != ev.CommID {
				return false
			}
		}
		for _, m := range group {
			s.pc[m]++
		}
		return true
	}
	s.pc[rank]++
	return true
}

// settle fires deterministic transitions until none is enabled. A message
// is delivered before any rank moves again, so a receive posted later
// never sees a message an earlier one was entitled to.
func (nv *naive) settle(s *naiveState) {
	for {
		moved := nv.deliver(s)
		for r := 0; r < nv.net.N && !moved; r++ {
			moved = nv.advance(s, r)
		}
		if !moved {
			return
		}
	}
}

func (nv *naive) finished(s *naiveState) bool {
	for r, pc := range s.pc {
		if pc < len(nv.net.Procs[r]) {
			return false
		}
	}
	return true
}

// matches lists the wildcard matches enabled at a settled marking.
func (nv *naive) matches(s *naiveState) []naiveMatch {
	var ms []naiveMatch
	for ch, k := range nv.net.Chans {
		if s.chans[ch] == 0 {
			continue
		}
		if e := nv.firstTaker(s, k.Dst, ch); e >= 0 && nv.net.Procs[k.Dst][e].Wild {
			ms = append(ms, naiveMatch{rank: k.Dst, ev: e, ch: ch})
		}
	}
	return ms
}

func (nv *naive) fire(s *naiveState, m naiveMatch) {
	s.chans[m.ch]--
	nv.markMatched(s, m.rank, m.ev)
	nv.settle(s)
}

// reachesDeadlock walks every execution depth-first and reports whether
// one ends in a marking with unfinished ranks and nothing enabled.
func (nv *naive) reachesDeadlock(s *naiveState) bool {
	ms := nv.matches(s)
	if len(ms) == 0 {
		nv.leaves++
		return !nv.finished(s)
	}
	for _, m := range ms {
		c := s.clone()
		nv.fire(c, m)
		if nv.reachesDeadlock(c) {
			return true
		}
	}
	return false
}

// force drives the naive stepper through choices and returns the marking
// it ends in, or an error naming the choice that was not enabled.
func (nv *naive) force(choices []Choice) (*naiveState, error) {
	s := nv.start()
	nv.settle(s)
	for i, c := range choices {
		enabled := false
		for _, m := range nv.matches(s) {
			if k := nv.net.Chans[m.ch]; m.rank == c.Rank && m.ev == c.Event && k.Src == c.Source && k.Tag == c.Tag {
				nv.fire(s, m)
				enabled = true
				break
			}
		}
		if !enabled {
			return nil, fmt.Errorf("choice %d (%+v) is not enabled", i, c)
		}
	}
	return s, nil
}

// randomNet records a random message pattern through the real collector
// and lowers it: up to 4 ranks and 6 wildcard receives. Every message gets
// a send and a receive appended in one global order (so the pattern is
// completable when every receive is concrete), then receives turn into
// wildcards or nonblocking posts, neighbours swap and barriers drop in — the
// perturbations that create the deadlocks the checker must find.
func randomNet(t *testing.T, rng *rand.Rand) *Net {
	t.Helper()
	n := 2 + rng.Intn(3)
	progs := make([][]mpi.Event, n)
	emit := func(rank int, ev mpi.Event) {
		ev.Rank, ev.CommSize, ev.Root = rank, n, -1
		ev.CallSite = uint64(ev.Op)<<8 | uint64(ev.Tag) // few sites, so loops fold
		progs[rank] = append(progs[rank], ev)
	}
	wild := 0
	for m := 3 + rng.Intn(8); m > 0; m-- {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		tag := rng.Intn(3) / 2 // mostly one tag, so senders compete
		send := mpi.OpSend
		if rng.Intn(4) == 0 {
			send = mpi.OpIsend
		}
		emit(src, mpi.Event{Op: send, Peer: dst, Tag: tag, Size: 8})
		recv := mpi.Event{Op: mpi.OpRecv, Peer: src, Tag: tag, Size: 8}
		if rng.Intn(3) == 0 {
			recv.Op = mpi.OpIrecv
		}
		if wild < 6 && rng.Intn(3) > 0 {
			recv.Peer, recv.SourceWasWildcard = mpi.AnySource, true
			wild++
		}
		emit(dst, recv)
		if rng.Intn(6) == 0 {
			emit(rng.Intn(n), mpi.Event{Op: mpi.OpWait, Peer: mpi.NoPeer})
		}
		if rng.Intn(8) == 0 {
			for r := 0; r < n; r++ {
				emit(r, mpi.Event{Op: mpi.OpBarrier, Peer: mpi.NoPeer})
			}
		}
	}
	for r := range progs {
		if p := progs[r]; len(p) > 1 && rng.Intn(3) == 0 {
			i := rng.Intn(len(p) - 1)
			p[i], p[i+1] = p[i+1], p[i]
		}
		emit(r, mpi.Event{Op: mpi.OpWaitall, Peer: mpi.NoPeer})
	}
	col := trace.NewCollector(n)
	for r, p := range progs {
		tr := col.TracerFor(r)
		for i := range p {
			tr.Record(&p[i])
		}
	}
	net, err := FromTrace(col.Trace(), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	return net
}

// TestCheckAgainstNaiveExplorer: on seeded random nets the checker reports
// a deadlock exactly when the naive explorer reaches one, proves the rest
// exhaustively, and every counterexample it returns drives the naive
// stepper into a blocked, unfinished marking.
func TestCheckAgainstNaiveExplorer(t *testing.T) {
	const nets = 2000
	deadlocks, branching := 0, 0
	for seed := int64(0); seed < nets; seed++ {
		net := randomNet(t, rand.New(rand.NewSource(seed)))
		nv := &naive{net: net}
		s := nv.start()
		nv.settle(s)
		want := nv.reachesDeadlock(s)
		if nv.leaves > 1 {
			branching++
		}

		v := net.Check(nil)
		if got := v.Counterexample != nil; got != want {
			t.Fatalf("seed %d: checker deadlock=%v, naive explorer=%v (%d executions)\nverdict %+v",
				seed, got, want, nv.leaves, v)
		}
		if !want {
			if !v.Exhaustive || !v.DeadlockFree {
				t.Fatalf("seed %d: deadlock-free net not proven: %+v", seed, v)
			}
			continue
		}
		deadlocks++
		end, err := nv.force(v.Counterexample.Choices)
		if err != nil {
			t.Fatalf("seed %d: counterexample does not replay: %v", seed, err)
		}
		if len(nv.matches(end)) != 0 || nv.finished(end) {
			t.Fatalf("seed %d: counterexample ends in a live or final marking: %+v", seed, end)
		}
		stuck := 0
		for r, pc := range end.pc {
			if pc < len(net.Procs[r]) {
				stuck++
			}
		}
		if stuck != len(v.Counterexample.Blocked) {
			t.Fatalf("seed %d: %d ranks stuck, counterexample lists %v", seed, stuck, v.Counterexample.Blocked)
		}
	}
	// The generator must produce both outcomes and real branching, or the
	// agreement above says little.
	if deadlocks < nets/5 || nets-deadlocks < nets/5 || branching < nets/3 {
		t.Fatalf("generator is lopsided: %d of %d nets deadlock, %d branch", deadlocks, nets, branching)
	}
}
