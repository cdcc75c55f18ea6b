package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresets(t *testing.T) {
	for _, name := range []string{"bluegene", "bgl", "BlueGeneL", "ethernet", "arc", "ideal"} {
		if Preset(name) == nil {
			t.Errorf("Preset(%q) = nil", name)
		}
	}
	if Preset("cray") != nil {
		t.Error("unknown preset should return nil")
	}
}

func TestTransferMonotoneInSize(t *testing.T) {
	m := BlueGeneL()
	prev := -1.0
	for _, size := range []int{0, 1, 64, 1024, 4096, 1 << 20} {
		c := m.TransferUS(size)
		if c <= prev {
			t.Fatalf("TransferUS(%d) = %v not > previous %v", size, c, prev)
		}
		prev = c
	}
}

func TestTransferRendezvousJump(t *testing.T) {
	m := BlueGeneL()
	atLimit := m.TransferUS(m.EagerLimit)
	justOver := m.TransferUS(m.EagerLimit + 1)
	if justOver-atLimit < 2*m.LatencyUS {
		t.Fatalf("rendezvous handshake missing: %v -> %v", atLimit, justOver)
	}
}

func TestIdealModelZeroish(t *testing.T) {
	m := Ideal()
	if got := m.TransferUS(1 << 20); got != 0 {
		t.Fatalf("ideal transfer = %v, want 0", got)
	}
	if got := m.UnexpectedCopyUS(100); got != 0 {
		t.Fatalf("ideal unexpected copy = %v, want 0", got)
	}
}

func TestUnexpectedCopyCost(t *testing.T) {
	m := EthernetCluster()
	if m.UnexpectedCopyUS(0) <= 0 {
		t.Fatal("zero-byte unexpected message should still cost something")
	}
	if m.UnexpectedCopyUS(1<<20) <= m.UnexpectedCopyUS(64) {
		t.Fatal("unexpected copy cost should grow with size")
	}
}

func TestCollectiveLogScaling(t *testing.T) {
	m := BlueGeneL()
	c16 := m.CollectiveUS(16, 0)
	c256 := m.CollectiveUS(256, 0)
	if math.Abs(c256/c16-2) > 1e-9 { // log2(256)/log2(16) = 8/4
		t.Fatalf("collective depth ratio = %v, want 2", c256/c16)
	}
	if m.CollectiveUS(1, 0) != m.CollectiveAlphaUS {
		t.Fatal("single-rank collective should cost alpha")
	}
}

func TestAlltoallLinearInP(t *testing.T) {
	m := BlueGeneL()
	a8 := m.AlltoallUS(8, 0)
	a15 := m.AlltoallUS(15, 0)
	if math.Abs(a15/a8-2) > 1e-9 { // (15-1)/(8-1)
		t.Fatalf("alltoall ratio = %v, want 2", a15/a8)
	}
	if m.AlltoallUS(1, 100) != m.CollectiveAlphaUS {
		t.Fatal("single-rank alltoall should cost alpha")
	}
}

func TestBarrier(t *testing.T) {
	m := EthernetCluster()
	if m.BarrierUS(64) != m.CollectiveUS(64, 0) {
		t.Fatal("barrier should be a zero-byte collective")
	}
}

func TestEthernetSlowerThanBGL(t *testing.T) {
	// The paper's what-if study relies on Ethernet being dramatically
	// worse for fine-grained messaging.
	bgl, eth := BlueGeneL(), EthernetCluster()
	if eth.TransferUS(64) < 5*bgl.TransferUS(64) {
		t.Fatalf("ethernet small-message cost %v should dwarf BGL %v",
			eth.TransferUS(64), bgl.TransferUS(64))
	}
}

func TestPropertyCostsNonNegative(t *testing.T) {
	f := func(sizeRaw uint32, pRaw uint16) bool {
		size := int(sizeRaw % (1 << 22))
		p := int(pRaw%1024) + 1
		for _, m := range []*Model{BlueGeneL(), EthernetCluster(), Ideal()} {
			if m.TransferUS(size) < 0 || m.UnexpectedCopyUS(size) < 0 ||
				m.CollectiveUS(p, size) < 0 || m.AlltoallUS(p, size) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCollectiveMonotoneInP(t *testing.T) {
	f := func(pRaw uint8, sizeRaw uint16) bool {
		p := int(pRaw%200) + 2
		size := int(sizeRaw)
		m := BlueGeneL()
		return m.CollectiveUS(p+1, size) >= m.CollectiveUS(p, size)-1e-9 &&
			m.AlltoallUS(p+1, size) >= m.AlltoallUS(p, size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	m := BlueGeneL()
	m.NoiseFraction = 0.05
	m.NoiseSeed = 7
	a := m.NoiseUS(100, 3, 42, 1)
	b := m.NoiseUS(100, 3, 42, 1)
	if a != b {
		t.Fatal("noise not deterministic")
	}
	if a < 0 || a > 5.0 {
		t.Fatalf("noise %v outside [0, 5%%]", a)
	}
	if m.NoiseUS(100, 3, 43, 1) == a && m.NoiseUS(100, 4, 42, 1) == a {
		t.Fatal("noise does not vary with event/rank")
	}
	m.NoiseFraction = 0
	if m.NoiseUS(100, 3, 42, 1) != 0 {
		t.Fatal("disabled noise should be zero")
	}
	if m.NoiseUS(0, 3, 42, 1) != 0 {
		t.Fatal("zero base should yield zero noise")
	}
}

func TestNoiseChangesRunTimesButStaysReproducible(t *testing.T) {
	m1 := BlueGeneL()
	m1.NoiseFraction = 0.05
	m1.NoiseSeed = 1
	m2 := BlueGeneL()
	m2.NoiseFraction = 0.05
	m2.NoiseSeed = 2
	if m1.NoiseUS(100, 0, 1, 1) == m2.NoiseUS(100, 0, 1, 1) {
		t.Fatal("different seeds should perturb differently")
	}
}

func TestInfiniBandPreset(t *testing.T) {
	ib := Preset("infiniband")
	if ib == nil {
		t.Fatal("infiniband preset missing")
	}
	eth := EthernetCluster()
	if ib.TransferUS(1<<20) >= eth.TransferUS(1<<20) {
		t.Fatal("IB should move a megabyte faster than GigE")
	}
	if ib.LatencyUS >= BlueGeneL().LatencyUS {
		t.Fatal("IB latency should undercut the BG/L model")
	}
}

// TestBurstStallEagerBoundary: a message of exactly EagerLimit bytes is eager
// and never stalls; one byte more is bulk and stalls when offered back to
// back.
func TestBurstStallEagerBoundary(t *testing.T) {
	m := EthernetCluster()
	if got := m.BurstStallUS(m.EagerLimit, 0); got != 0 {
		t.Errorf("BurstStallUS(EagerLimit, 0) = %v, want 0", got)
	}
	if got := m.BurstStallUS(m.EagerLimit+1, 0); got <= 0 {
		t.Errorf("BurstStallUS(EagerLimit+1, 0) = %v, want > 0", got)
	}
}
