package mpi

// ArenaChunkMax lets the external tests (package mpi_test, which may import
// the trace and replay layers this package cannot) size request bursts around
// the arena's refill boundary.
const ArenaChunkMax = arenaChunkMax

// IssueOps runs a point-to-point op list through the public wrappers from a
// coroutine body, as issueOps does for the internal tests.
func IssueOps(r *Rank, ops []RankOp) { issueOps(r, ops) }
