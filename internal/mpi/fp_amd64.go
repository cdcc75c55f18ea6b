package mpi

import "unsafe"

// getfp returns its caller's frame pointer (fp_amd64.s).
func getfp() unsafe.Pointer
