package apps

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// validCount returns a rank count the app supports, preferring the hint.
func validCount(a *App, hint int) int {
	for n := hint; n >= a.MinRanks; n-- {
		if a.ValidRanks(n) {
			return n
		}
	}
	return a.MinRanks
}

func TestRegistryComplete(t *testing.T) {
	for _, name := range append(NPBNames(), "sweep3d", "ring", "halo2d") {
		if ByName(name) == nil {
			t.Errorf("app %q not registered", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown app resolved")
	}
	if len(Names()) < 11 {
		t.Errorf("registry too small: %v", Names())
	}
}

func TestAllAppsRunClassS(t *testing.T) {
	for _, name := range Names() {
		a := ByName(name)
		n := validCount(a, 16)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := NewConfig(n, ClassS)
			res, err := mpi.Run(n, netmodel.BlueGeneL(), a.Body(cfg))
			if err != nil {
				t.Fatalf("%s on %d ranks: %v", name, n, err)
			}
			if res.ElapsedUS <= 0 {
				t.Fatalf("%s elapsed nothing", name)
			}
		})
	}
}

func TestAppsDeterministic(t *testing.T) {
	// Identical configs must produce identical virtual times — the basis of
	// reproducible timing comparisons. (LU is excluded: its wildcard
	// receives make the original application nondeterministic by design.)
	for _, name := range []string{"bt", "cg", "ft", "is", "mg", "sweep3d", "ring"} {
		a := ByName(name)
		n := validCount(a, 16)
		cfg := NewConfig(n, ClassS)
		r1, err := mpi.Run(n, netmodel.BlueGeneL(), a.Body(cfg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2, err := mpi.Run(n, netmodel.BlueGeneL(), a.Body(cfg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r1.ElapsedUS != r2.ElapsedUS {
			t.Errorf("%s nondeterministic: %v vs %v", name, r1.ElapsedUS, r2.ElapsedUS)
		}
	}
}

func TestClassesScaleTime(t *testing.T) {
	a := ByName("ft")
	tS, err := mpi.Run(4, netmodel.BlueGeneL(), a.Body(NewConfig(4, ClassS)))
	if err != nil {
		t.Fatal(err)
	}
	tA, err := mpi.Run(4, netmodel.BlueGeneL(), a.Body(NewConfig(4, ClassA)))
	if err != nil {
		t.Fatal(err)
	}
	if tA.ElapsedUS <= tS.ElapsedUS {
		t.Fatalf("class A not slower than S: %v vs %v", tA.ElapsedUS, tS.ElapsedUS)
	}
}

func TestValidRanks(t *testing.T) {
	if !ByName("bt").ValidRanks(16) || ByName("bt").ValidRanks(15) {
		t.Error("bt must require square counts")
	}
	if !ByName("cg").ValidRanks(32) || ByName("cg").ValidRanks(24) {
		t.Error("cg must require powers of two")
	}
	if !ByName("lu").ValidRanks(12) {
		t.Error("lu should accept any factorable count")
	}
	for _, c := range []struct {
		app     string
		n, want int
	}{{"bt", 16, 16}, {"bt", 15, 9}, {"cg", 24, 16}, {"ring", 16, 16}, {"bt", 0, ByName("bt").MinRanks}} {
		if got := ByName(c.app).RanksAtMost(c.n); got != c.want {
			t.Errorf("%s.RanksAtMost(%d) = %d, want %d", c.app, c.n, got, c.want)
		}
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"S", "W", "A", "B", "C"} {
		if _, err := ParseClass(s); err != nil {
			t.Errorf("ParseClass(%q): %v", s, err)
		}
	}
	for _, s := range []string{"", "D", "SS", "x"} {
		if _, err := ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q) succeeded", s)
		}
	}
}

func TestGrid2D(t *testing.T) {
	g, ok := NewGrid2D(12)
	if !ok || g.Rows*g.Cols != 12 {
		t.Fatalf("bad grid: %+v", g)
	}
	if _, ok := NewGrid2D(0); ok {
		t.Fatal("grid of 0 should fail")
	}
	sq, ok := SquareGrid(16)
	if !ok || sq.Rows != 4 || sq.Cols != 4 {
		t.Fatalf("square grid: %+v", sq)
	}
	if _, ok := SquareGrid(12); ok {
		t.Fatal("12 is not square")
	}

	g = Grid2D{Rows: 3, Cols: 4}
	if g.North(0) != -1 || g.North(4) != 0 {
		t.Error("North wrong")
	}
	if g.South(8) != -1 || g.South(4) != 8 {
		t.Error("South wrong")
	}
	if g.West(4) != -1 || g.West(5) != 4 {
		t.Error("West wrong")
	}
	if g.East(3) != -1 || g.East(2) != 3 {
		t.Error("East wrong")
	}
	if g.NorthWrap(0) != 8 || g.SouthWrap(8) != 0 {
		t.Error("vertical wrap wrong")
	}
	if g.WestWrap(0) != 3 || g.EastWrap(3) != 0 {
		t.Error("horizontal wrap wrong")
	}
	row, col := g.Coords(7)
	if row != 1 || col != 3 || g.Rank(row, col) != 7 {
		t.Error("coords round trip wrong")
	}
}

func TestCGLayoutTransposeInvolution(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		l := newCGLayout(n)
		if l.nprows*l.npcols != n {
			t.Fatalf("layout %dx%d != %d", l.nprows, l.npcols, n)
		}
		for rank := 0; rank < n; rank++ {
			tp := l.transposePartner(rank)
			if tp < 0 || tp >= n {
				t.Fatalf("n=%d rank %d partner %d out of range", n, rank, tp)
			}
			if back := l.transposePartner(tp); back != rank {
				t.Fatalf("n=%d transpose not an involution: %d -> %d -> %d", n, rank, tp, back)
			}
		}
	}
}

func TestComputeTimeProperties(t *testing.T) {
	if computeTime(100, 0) <= computeTime(100, 3) {
		t.Error("first iteration should be slowest")
	}
	if computeTime(100, 5) == computeTime(100, 6) {
		t.Error("ripple should vary across iterations")
	}
	if computeTime(100, 5) != computeTime(100, 5) {
		t.Error("compute time must be deterministic")
	}
}
