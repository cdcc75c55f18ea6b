package mpnet

import (
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// checkMarking fails t unless s.nz is exactly the set of channels holding
// tokens, with no bit past the channel table.
func checkMarking(t testing.TB, s *vmState) {
	t.Helper()
	if len(s.nz) != (len(s.chans)+63)/64 {
		t.Fatalf("%d bitset words for %d channels", len(s.nz), len(s.chans))
	}
	for ch := 0; ch < 64*len(s.nz); ch++ {
		set := s.nz[ch/64]>>(ch%64)&1 == 1
		if ch >= len(s.chans) {
			if set {
				t.Fatalf("bit %d set past the %d channels", ch, len(s.chans))
			}
			continue
		}
		if set != (s.chans[ch] != 0) {
			t.Fatalf("channel %d holds %d tokens but its bit is %v", ch, s.chans[ch], set)
		}
	}
}

// exploreMarked walks net's quiescent states breadth-first through the
// checker's own steps — no sleep sets, a map as the visited set — and checks
// the marking after every decode, apply and drain, until maxStates distinct
// states are stored. It returns how many were.
func exploreMarked(t *testing.T, net *Net, maxStates int) int {
	t.Helper()
	c := newChecker(net)
	cur, child := c.newState(), c.newState()
	c.drain(cur)
	checkMarking(t, cur)
	queue := [][]byte{cur.encode(nil)}
	seen := map[string]bool{string(queue[0]): true}
	for len(queue) > 0 && len(seen) < maxStates {
		cur.decode(queue[0])
		queue = queue[1:]
		checkMarking(t, cur)
		for _, o := range c.enumerate(cur) {
			child.copyFrom(cur)
			c.apply(child, o)
			checkMarking(t, child)
			c.drain(child)
			checkMarking(t, child)
			if key := child.encode(nil); !seen[string(key)] {
				seen[string(key)] = true
				queue = append(queue, key)
			}
		}
	}
	return len(seen)
}

// TestMarkingBitsetTracksTokens: the non-empty-channel bitset equals the
// channels holding tokens at every step of lu-8, cross-coupled and 200
// random nets.
func TestMarkingBitsetTracksTokens(t *testing.T) {
	for _, tr := range []func(testing.TB) *trace.Trace{
		kernelTrace("lu", 8), bodyTrace(4, netmodel.BlueGeneL(), crossCoupledBody),
	} {
		net, err := FromTrace(tr(t), nil)
		if err != nil {
			t.Fatalf("FromTrace: %v", err)
		}
		if states := exploreMarked(t, net, 1<<12); states < 4 {
			t.Errorf("walked %d states", states)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		exploreMarked(t, randomNet(t, rand.New(rand.NewSource(seed))), 1<<12)
	}
}
