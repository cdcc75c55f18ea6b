package mpi

// ArenaChunkMax lets the external tests (package mpi_test, which may import
// the trace and replay layers this package cannot) size request bursts around
// the arena's refill boundary.
const ArenaChunkMax = arenaChunkMax
