// Package apps provides the workload suite of the paper's evaluation:
// communication skeletons of the NAS Parallel Benchmarks (BT, CG, EP, FT,
// IS, LU, MG, SP) and the Sweep3D neutron-transport kernel, plus small toy
// programs. Each skeleton reproduces the original code's communication
// structure — process grids, neighbor exchanges, transposes, wavefronts and
// collectives, including LU's wildcard receives and Sweep3D's split-call-site
// collectives — while computation is modeled as virtual-time phases sized by
// the NPB problem classes.
package apps

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
)

// Class is an NPB problem class.
type Class byte

// The NPB problem classes, smallest to largest.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// ParseClass converts a one-letter class name.
func ParseClass(s string) (Class, error) {
	if len(s) == 1 {
		switch Class(s[0]) {
		case ClassS, ClassW, ClassA, ClassB, ClassC:
			return Class(s[0]), nil
		}
	}
	return 0, fmt.Errorf("apps: unknown class %q (want S, W, A, B or C)", s)
}

// gridPoints returns the per-dimension problem size of the class (the NPB
// class-C cube is 162^3 for BT/SP, etc.; one representative scale is used
// for all apps).
func (c Class) gridPoints() int {
	switch c {
	case ClassS:
		return 12
	case ClassW:
		return 24
	case ClassA:
		return 64
	case ClassB:
		return 102
	default: // ClassC
		return 162
	}
}

// iterScale scales iteration counts so small classes run quickly in tests.
func (c Class) iterScale() float64 {
	switch c {
	case ClassS:
		return 0.1
	case ClassW:
		return 0.2
	case ClassA:
		return 0.5
	case ClassB:
		return 0.8
	default:
		return 1.0
	}
}

// Config parameterizes one application run. Build it with NewConfig, which
// sets ComputeScale to 1; a literal Config with ComputeScale 0 models
// infinitely fast processors (the Section 5.4 what-if study).
type Config struct {
	// N is the number of ranks.
	N int
	// Class selects the problem size.
	Class Class
	// ComputeScale multiplies every computation phase; 1.0 reproduces the
	// class's nominal compute time, 0.0 removes computation entirely.
	ComputeScale float64
}

// NewConfig returns a Config with the nominal compute scale of 1.0.
func NewConfig(n int, class Class) Config {
	return Config{N: n, Class: class, ComputeScale: 1.0}
}

func (c Config) scale() float64 {
	if c.ComputeScale < 0 {
		return 0
	}
	return c.ComputeScale
}

// App is one runnable workload.
type App struct {
	// Name is the short identifier (e.g. "bt", "sweep3d").
	Name string
	// Description is a one-line summary.
	Description string
	// MinRanks is the smallest supported rank count.
	MinRanks int
	// ValidRanks reports whether the app's decomposition supports n ranks.
	ValidRanks func(n int) bool
	// Iterations returns the time-step count for a class.
	Iterations func(c Class) int
	// Body returns the per-rank function.
	Body func(cfg Config) func(*mpi.Rank)
}

// RanksAtMost returns the largest rank count the app's decomposition
// supports that does not exceed n, or MinRanks when there is none.
func (a *App) RanksAtMost(n int) int {
	for ; n > a.MinRanks; n-- {
		if a.ValidRanks(n) {
			return n
		}
	}
	return a.MinRanks
}

var registry = map[string]*App{}

func register(a *App) {
	registry[a.Name] = a
}

// ByName looks up an app; it returns nil for unknown names.
func ByName(name string) *App { return registry[name] }

// Names returns the registered app names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NPBNames returns the NAS Parallel Benchmark members in the paper's order.
func NPBNames() []string {
	return []string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}
}

// computeTime returns a deterministic compute-phase duration in
// microseconds. The first iteration runs longer (cold caches), and a
// deterministic per-iteration ripple makes histogram-mean replay slightly
// lossy — the realistic error source of Section 4.5.
func computeTime(baseUS float64, iter int, scale float64) float64 {
	t := baseUS
	if iter == 0 {
		t *= 1.6
	}
	ripple := float64((uint64(iter+1)*2654435761)%101) / 101.0
	t *= 0.97 + 0.06*ripple
	return t * scale
}
