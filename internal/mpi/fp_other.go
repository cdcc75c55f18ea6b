//go:build !amd64

package mpi

import "unsafe"

// getfp has no frame pointer to give: callSite walks with runtime.Callers.
func getfp() unsafe.Pointer { return nil }
