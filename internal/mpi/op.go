// Package mpi implements the message-passing substrate that stands in for a
// real MPI library plus machine in this reproduction. Each rank runs as a
// goroutine carrying a virtual clock in microseconds; communication costs are
// charged through a netmodel.Model. The package supports blocking and
// nonblocking point-to-point operations with tags and wildcard sources, the
// MPI collectives the paper's generator consumes (Table 1), and derived
// communicators with rank renumbering.
//
// The runtime exposes a PMPI-style hook (Tracer) through which ScalaTrace's
// equivalent (internal/trace) observes every operation, including the virtual
// compute time elapsed since the previous operation.
package mpi

import "fmt"

// Op identifies an MPI operation for tracing and profiling.
type Op int

// The operations understood by the runtime, the tracer and the generator.
const (
	OpNone Op = iota
	OpSend
	OpIsend
	OpRecv
	OpIrecv
	OpWait
	OpWaitall
	OpBarrier
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	OpGatherv
	OpAllgather
	OpAllgatherv
	OpScatter
	OpScatterv
	OpAlltoall
	OpAlltoallv
	OpReduceScatter
	OpCommSplit
	OpCommDup
	OpInit
	OpFinalize
	opSentinel // number of ops; keep last
)

// NumOps is the count of distinct operations, for profiling arrays.
const NumOps = int(opSentinel)

var opNames = [...]string{
	OpNone:          "None",
	OpSend:          "Send",
	OpIsend:         "Isend",
	OpRecv:          "Recv",
	OpIrecv:         "Irecv",
	OpWait:          "Wait",
	OpWaitall:       "Waitall",
	OpBarrier:       "Barrier",
	OpBcast:         "Bcast",
	OpReduce:        "Reduce",
	OpAllreduce:     "Allreduce",
	OpGather:        "Gather",
	OpGatherv:       "Gatherv",
	OpAllgather:     "Allgather",
	OpAllgatherv:    "Allgatherv",
	OpScatter:       "Scatter",
	OpScatterv:      "Scatterv",
	OpAlltoall:      "Alltoall",
	OpAlltoallv:     "Alltoallv",
	OpReduceScatter: "ReduceScatter",
	OpCommSplit:     "CommSplit",
	OpCommDup:       "CommDup",
	OpInit:          "Init",
	OpFinalize:      "Finalize",
}

// String returns the MPI-style name of the operation (without the MPI_
// prefix).
func (op Op) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(op))
	}
	return opNames[op]
}

// OpFromString is the inverse of String. It returns OpNone for unknown names.
func OpFromString(name string) Op {
	for i, n := range opNames {
		if n == name {
			return Op(i)
		}
	}
	return OpNone
}

// IsCollective reports whether the operation synchronizes a whole
// communicator. Finalize counts as a collective, as in the paper's
// Algorithms 1 and 2.
func (op Op) IsCollective() bool {
	switch op {
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpGatherv,
		OpAllgather, OpAllgatherv, OpScatter, OpScatterv, OpAlltoall,
		OpAlltoallv, OpReduceScatter, OpCommSplit, OpCommDup, OpFinalize:
		return true
	}
	return false
}

// IsPointToPoint reports whether the operation is a send or receive.
func (op Op) IsPointToPoint() bool {
	switch op {
	case OpSend, OpIsend, OpRecv, OpIrecv:
		return true
	}
	return false
}

// IsSendSide reports whether the operation injects a message.
func (op Op) IsSendSide() bool { return op == OpSend || op == OpIsend }

// IsWait reports whether the operation completes earlier nonblocking
// requests.
func (op Op) IsWait() bool { return op == OpWait || op == OpWaitall }

// Wildcard values for point-to-point receives.
const (
	// AnySource matches a message from any sender (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches any message tag (MPI_ANY_TAG).
	AnyTag = -1
)
