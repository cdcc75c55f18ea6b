// Package netmodel provides the parameterized communication cost model that
// stands in for the physical machines of the paper (the Blue Gene/L
// "Ocracoke" and the Ethernet cluster "ARC"). The simulated MPI runtime asks
// this model how long point-to-point transfers, protocol events and
// collective operations take in virtual microseconds.
//
// The model is LogGP-flavored: a transfer costs a fixed latency L plus
// size/bandwidth, with separate CPU overheads at sender and receiver. Two
// additional mechanisms matter for the paper's Figure 7 experiment:
//
//   - Unexpected-message copies: a message that arrives before its receive is
//     posted lands in the unexpected queue and pays an extra memory copy.
//   - Flow control: each sender holds a bounded number of credits per
//     receiver; exhausting them stalls the sender until the receiver drains,
//     plus a resume latency.
package netmodel

import (
	"fmt"
	"math"
)

// Model holds the platform parameters in microseconds and bytes.
type Model struct {
	// Name identifies the platform preset.
	Name string

	// LatencyUS is the one-way zero-byte message latency in microseconds.
	LatencyUS float64
	// BandwidthBytesPerUS is the sustained point-to-point bandwidth.
	BandwidthBytesPerUS float64
	// SendOverheadUS and RecvOverheadUS are the CPU costs of posting a send
	// and completing a receive.
	SendOverheadUS float64
	RecvOverheadUS float64

	// EagerLimit is the largest message sent eagerly; larger messages use a
	// rendezvous handshake costing an extra round trip.
	EagerLimit int

	// UnexpectedCopyBytesPerUS is the memory-copy rate paid when a message
	// arrives before its receive is posted (the unexpected-receive queue
	// cost of Section 5.4). Zero disables the penalty.
	UnexpectedCopyBytesPerUS float64

	// CreditWindow is the number of eager messages a sender may have
	// outstanding to one receiver before MPI flow control stalls it.
	// Zero or negative means unlimited.
	CreditWindow int
	// ResumeLatencyUS is paid by a stalled sender once credits free up
	// (the "cost in network latency to resume them" of Section 5.4).
	ResumeLatencyUS float64

	// CollectiveAlphaUS and CollectiveBetaPerByteUS tune collective cost:
	// a tree collective over p ranks costs
	// ceil(log2 p) * (CollectiveAlphaUS + size*CollectiveBetaPerByteUS).
	CollectiveAlphaUS       float64
	CollectiveBetaPerByteUS float64

	// FlowSaturationFactor and FlowStallFactor model the messaging layer's
	// behaviour under sustained per-peer load (Section 5.4's flow-control
	// narrative): a sender that re-injects to the same destination within
	// FlowSaturationFactor transfer-times of its previous message is
	// saturating that path — its buffers and the switch's cannot drain — and
	// each such injection stalls the sender for FlowStallFactor
	// transfer-times (buffer exhaustion, retransmission and resume costs).
	// Both thresholds scale with the message's own service time, so the
	// mechanism is size- and class-independent. Zero disables it;
	// link-level flow-controlled networks (the Blue Gene torus) leave it
	// off, commodity Ethernet turns it on.
	FlowSaturationFactor float64
	FlowStallFactor      float64

	// NoiseFraction adds deterministic pseudo-random platform noise: each
	// compute phase and message transfer is stretched by up to this
	// fraction (e.g. 0.02 = up to 2%), keyed by rank and event index so
	// that two runs of the same program see *different but reproducible*
	// perturbations — the OS jitter a real machine would add. Zero (the
	// default) disables noise. NoiseSeed varies the perturbation stream.
	NoiseFraction float64
	NoiseSeed     uint64
}

// NoiseUS returns the deterministic noise to add to a duration of base
// microseconds for the given (rank, event, salt) triple.
func (m *Model) NoiseUS(base float64, rank int, event uint64, salt uint64) float64 {
	if m.NoiseFraction <= 0 || base <= 0 {
		return 0
	}
	x := m.NoiseSeed ^ uint64(rank)*0x9e3779b97f4a7c15 ^ event*0xbf58476d1ce4e5b9 ^ salt*0x94d049bb133111eb
	// splitmix64 finalizer for a well-mixed deterministic value.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x%1000) / 999.0 // uniform in [0,1]
	return base * m.NoiseFraction * frac
}

// BlueGeneL models the paper's trace-collection and timing platform: a
// low-latency torus with modest per-link bandwidth. Parameters follow
// published BG/L MPI figures (≈3us latency, ≈150 MB/s effective).
func BlueGeneL() *Model {
	return &Model{
		Name:                     "BlueGeneL",
		LatencyUS:                3.0,
		BandwidthBytesPerUS:      150.0, // 150 MB/s
		SendOverheadUS:           0.8,
		RecvOverheadUS:           0.8,
		EagerLimit:               1024,
		UnexpectedCopyBytesPerUS: 800.0,
		CreditWindow:             64,
		ResumeLatencyUS:          12.0,
		CollectiveAlphaUS:        4.0,
		CollectiveBetaPerByteUS:  1.0 / 150.0,
	}
}

// EthernetCluster models the ARC cluster used for the Figure 7 what-if study:
// a commodity GigE network with high latency, shallow switch buffering and an
// expensive flow-control stall, which is what produces the nonlinear
// behaviour at low computation times.
func EthernetCluster() *Model {
	return &Model{
		Name:                     "EthernetCluster",
		LatencyUS:                45.0,
		BandwidthBytesPerUS:      110.0, // ~110 MB/s effective GigE
		SendOverheadUS:           4.0,
		RecvOverheadUS:           4.0,
		EagerLimit:               8192,
		UnexpectedCopyBytesPerUS: 350.0,
		CreditWindow:             16,
		ResumeLatencyUS:          220.0,
		CollectiveAlphaUS:        55.0,
		CollectiveBetaPerByteUS:  1.0 / 110.0,
		FlowSaturationFactor:     4.0,
		FlowStallFactor:          4.0,
	}
}

// BurstStallUS returns the stall charged for injecting a message of the
// given size to a destination whose previous message was offered gapUS
// earlier, or 0 when the path is not saturated (or the model has no burst
// throttling). The penalty ramps linearly from zero at the saturation
// threshold up to FlowStallFactor transfer-times for back-to-back offers.
func (m *Model) BurstStallUS(size int, gapUS float64) float64 {
	if m.FlowSaturationFactor <= 0 || m.FlowStallFactor <= 0 {
		return 0
	}
	// Eager messages are absorbed by preallocated buffers; only bulk
	// (rendezvous-class) transfers stress switch buffering enough to
	// trigger flow-control collapse.
	if size <= m.EagerLimit {
		return 0
	}
	service := m.TransferUS(size)
	threshold := m.FlowSaturationFactor * service
	if gapUS >= threshold {
		return 0
	}
	frac := (threshold - gapUS) / threshold
	if frac > 1 {
		frac = 1
	}
	return m.FlowStallFactor * service * frac
}

// InfiniBandCluster models a contemporary IB cluster: microsecond-scale
// latency with an order of magnitude more bandwidth than the paper's
// platforms, useful for procurement-style cross-platform studies.
func InfiniBandCluster() *Model {
	return &Model{
		Name:                     "InfiniBandCluster",
		LatencyUS:                1.8,
		BandwidthBytesPerUS:      1500.0, // ~1.5 GB/s (DDR IB era)
		SendOverheadUS:           0.5,
		RecvOverheadUS:           0.5,
		EagerLimit:               12288,
		UnexpectedCopyBytesPerUS: 2000.0,
		CreditWindow:             128,
		ResumeLatencyUS:          5.0,
		CollectiveAlphaUS:        2.5,
		CollectiveBetaPerByteUS:  1.0 / 1500.0,
	}
}

// Ideal returns a zero-cost network, useful for isolating semantic tests
// from timing behaviour.
func Ideal() *Model {
	return &Model{Name: "Ideal", BandwidthBytesPerUS: math.Inf(1), EagerLimit: 1 << 30}
}

// TransferUS returns the wire time for a message of size bytes: latency plus
// serialization. Rendezvous messages pay an extra round trip for the
// handshake.
func (m *Model) TransferUS(size int) float64 {
	t := m.LatencyUS + m.serializeUS(size)
	if size > m.EagerLimit {
		t += 2 * m.LatencyUS
	}
	return t
}

func (m *Model) serializeUS(size int) float64 {
	if m.BandwidthBytesPerUS <= 0 || math.IsInf(m.BandwidthBytesPerUS, 1) {
		return 0
	}
	return float64(size) / m.BandwidthBytesPerUS
}

// UnexpectedCopyUS returns the penalty for draining an unexpected message of
// size bytes from the unexpected queue into the user buffer.
func (m *Model) UnexpectedCopyUS(size int) float64 {
	if m.UnexpectedCopyBytesPerUS <= 0 {
		return 0
	}
	// Even a zero-byte unexpected message costs a queue operation.
	return 0.2 + float64(size)/m.UnexpectedCopyBytesPerUS
}

// CollectiveUS returns the cost of one tree-structured collective phase over
// p participants moving size bytes per rank. Operations that both fan in and
// fan out (allreduce, allgather) charge two phases via the runtime.
func (m *Model) CollectiveUS(p, size int) float64 {
	if p <= 1 {
		return m.CollectiveAlphaUS
	}
	depth := math.Ceil(math.Log2(float64(p)))
	return depth * (m.CollectiveAlphaUS + float64(size)*m.CollectiveBetaPerByteUS)
}

// AlltoallUS returns the cost of a personalized all-to-all over p ranks with
// size bytes per pair: p-1 serialized transfers overlapped pairwise,
// approximated as (p-1) * (alpha + size*beta).
func (m *Model) AlltoallUS(p, size int) float64 {
	if p <= 1 {
		return m.CollectiveAlphaUS
	}
	return float64(p-1) * (m.CollectiveAlphaUS + float64(size)*m.CollectiveBetaPerByteUS)
}

// BarrierUS returns the cost of a barrier over p ranks.
func (m *Model) BarrierUS(p int) float64 { return m.CollectiveUS(p, 0) }

// PresetNames lists the preset platform models for help texts and errors.
const PresetNames = "bluegene, ethernet, infiniband, ideal"

// Lookup is Preset for a name a user typed: an unknown one is an error that
// lists the presets.
func Lookup(name string) (*Model, error) {
	if m := Preset(name); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("unknown model %q (want one of %s)", name, PresetNames)
}

// Preset looks up a platform model by name (see PresetNames; a few aliases
// are accepted). Unknown names return nil.
func Preset(name string) *Model {
	switch name {
	case "bluegene", "bluegenel", "bgl", "BlueGeneL":
		return BlueGeneL()
	case "ethernet", "arc", "EthernetCluster":
		return EthernetCluster()
	case "infiniband", "ib", "InfiniBandCluster":
		return InfiniBandCluster()
	case "ideal", "Ideal":
		return Ideal()
	default:
		return nil
	}
}
