package trace

// CollectRingTrace hands the external tests (FuzzDecode's seeds) the ring
// trace the limits tests use.
var CollectRingTrace = collectRingTrace
