package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// plainOptions are the exported With* names of internal/mpi,
// internal/conceptual and internal/replay. Each configures a run without
// choosing a path: every layer has one execution path, and no exported
// With*, Mode* or *Reference* name may select a second.
var plainOptions = map[string]bool{
	"mpi.WithTracer":            true,
	"mpi.WithContext":           true,
	"mpi.WithEngine":            true,
	"mpi.WithCausalProfile":     true,
	"conceptual.WithMPIOptions": true,
}

// isCommGroup reports whether e reads a communicator's group off a trace:
// x.Comms[id] or x.CommGroup(id).
func isCommGroup(e ast.Expr) bool {
	if x, ok := e.(*ast.IndexExpr); ok {
		sel, ok := x.X.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Comms"
	}
	return isMethodCall(e, "CommGroup")
}

// isMethodCall reports whether e is a call x.name(...).
func isMethodCall(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// comparesIdent reports whether body tests the variable v with ==.
func comparesIdent(body ast.Node, v ast.Expr) bool {
	id, ok := v.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.EQL {
			for _, side := range []ast.Expr{b.X, b.Y} {
				if s, ok := side.(*ast.Ident); ok && s.Name == id.Name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

var selectorName = regexp.MustCompile(`^(With|Mode)|Reference`)

// schedulerName matches what a scheduler of the repo's own would export from
// internal/mpi: a pool or ticket type, or a New…Pool constructor.
var schedulerName = regexp.MustCompile(`(Pool|Ticket)$`)

// worldDrivers are the packages whose entry points run a simulated world.
var worldDrivers = map[string]bool{
	`"repro/internal/mpi"`:        true,
	`"repro/internal/conceptual"`: true,
	`"repro/internal/replay"`:     true,
}

// startsCompressor reports whether g is the one goroutine of
// internal/trace/collector.go: `go c.compressFn()`, the Collector's
// compressor.
func startsCompressor(fset *token.FileSet, g *ast.GoStmt) bool {
	sel, ok := g.Call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "compressFn" &&
		filepath.ToSlash(fset.Position(g.Pos()).Filename) == "internal/trace/collector.go"
}

// opStreamType is mpi.OpStream's whole declaration: one method, which fills
// the executor's op slot in place.
const opStreamType = "interface{Next(r *Rank, op *RankOp) bool}"

// topLevel lists the package-level names a file declares.
func topLevel(f *ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					names = append(names, s.Names...)
				case *ast.TypeSpec:
					names = append(names, s.Name)
				}
			}
		}
	}
	return names
}

// alignExportViolations holds internal/align to its two entry points, Align
// and Needed: Algorithm 1 walks lockstep classes, and a class of one rank is
// the paper's traversal as a case of the same code — no exported option,
// classifier or second entry point selects it, and the package reads no
// environment.
func alignExportViolations(files []*ast.File) []string {
	var bad []string
	found := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				bad = append(bad, "internal/align imports os: no environment variable selects a traversal")
			}
		}
		for _, id := range topLevel(f) {
			if !id.IsExported() {
				continue
			}
			found[id.Name] = true
			if id.Name != "Align" && id.Name != "Needed" {
				bad = append(bad, "align."+id.Name+": internal/align exports exactly Align and Needed")
			}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.IsExported() {
				bad = append(bad, "align: exported method "+fn.Name.Name)
			}
		}
	}
	for _, want := range []string{"Align", "Needed"} {
		if !found[want] {
			bad = append(bad, "align."+want+" is gone")
		}
	}
	return bad
}

// mergeSteps are the steps of the inter-node merge — classify by signature,
// decide compatibility, fold a member in — each with the one function that
// may call it.
var mergeSteps = map[string]string{
	"mergeSignature":  "MergeClasses",
	"mergeCompatible": "MergeClasses",
	"foldMember":      "MergeClasses",
}

// mergeFunctionViolations holds internal/trace to one function that
// classifies and folds sequences: MergeClasses, whether a class is one rank
// or several. A second copy — a merge "for ranks" beside the merge for
// classes — would call the same steps from somewhere else. (The legacy fold the tests keep as the merge's
// reference lives in a _test.go file: production code cannot name it.)
func mergeFunctionViolations(files []*ast.File) []string {
	var bad []string
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee = fun.Name
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				}
				if owner, ok := mergeSteps[callee]; ok && fn.Name.Name != owner && fn.Name.Name != callee {
					bad = append(bad, "trace."+fn.Name.Name+" calls "+callee+": "+owner+" is the one function that classifies and folds rank sequences")
				}
				return true
			})
		}
	}
	return bad
}

// parseNonTestDir parses every non-test Go file under dir.
func parseNonTestDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPathSelectorsArePinned fails when an exported With*, Mode* or
// *Reference* name appears that is not on the list above, when a command
// grows a -runtime flag again, when something other than the Go
// scheduler under internal/harness/pool.go spreads worlds over threads, when
// the trace merge, Algorithm 1 or Algorithm 2 goes concurrent, when
// mpi.OpStream's method set changes (a by-value Next), or when code outside
// internal/trace scans a communicator group for a world rank (a second
// translation beside Trace.CommRankOf's index), when internal/align exports
// more than Align and Needed, or when a second function of internal/trace
// classifies or folds rank sequences — so a PR that re-adds a second path, a
// knob for one or a scheduler does so by editing this test.
func TestPathSelectorsArePinned(t *testing.T) {
	fset := token.NewFileSet()
	parseDir := func(dir string) []*ast.File { return parseNonTestDir(t, fset, dir) }

	// internal/mpi starts no goroutine: coroutine ranks are iter.Pull, and a
	// run's cancellation is a context.AfterFunc callback.
	exported := map[string]bool{}
	for _, pkg := range []string{"mpi", "conceptual", "replay"} {
		for _, f := range parseDir(filepath.Join("internal", pkg)) {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && pkg == "mpi" && ts.Name.Name == "OpStream" {
					if got := types.ExprString(ts.Type); got != opStreamType {
						t.Errorf("mpi.OpStream is %s, want %s: streams fill the executor's op in place", got, opStreamType)
					}
				}
				if g, ok := n.(*ast.GoStmt); ok && pkg == "mpi" {
					t.Errorf("%s: internal/mpi starts a goroutine; ranks are iter.Pull coroutines "+
						"and cancellation is context.AfterFunc", fset.Position(g.Pos()))
				}
				return true
			})
			for _, id := range topLevel(f) {
				if id.IsExported() && selectorName.MatchString(id.Name) {
					exported[pkg+"."+id.Name] = true
				}
				if pkg == "mpi" && id.IsExported() && schedulerName.MatchString(id.Name) {
					t.Errorf("mpi.%s: internal/mpi exports a pool or ticket again; "+
						"concurrent worlds are plain goroutines (internal/harness/pool.go)", id.Name)
				}
			}
		}
	}
	for name := range exported {
		if !plainOptions[name] {
			t.Errorf("%s is a new exported option or path selector; if it selects an execution path, "+
				"the layer has grown a second path", name)
		}
	}
	for name := range plainOptions {
		if !exported[name] {
			t.Errorf("%s is listed here but no longer exported; drop it from the list", name)
		}
	}

	// The inter-node merge and the two passes that rebuild traces through it
	// are single-threaded: no look at GOMAXPROCS, no worker count to set, and
	// no goroutine but the Collector's one compressor, which runs a world's
	// intra-rank compression beside its engine and drives no world.
	for _, pkg := range []string{"trace", "align", "wildcard"} {
		for _, f := range parseDir(filepath.Join("internal", pkg)) {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"runtime"` {
					t.Errorf("%s: internal/%s imports runtime", fset.Position(imp.Pos()), pkg)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !startsCompressor(fset, g) {
					t.Errorf("%s: internal/%s starts a goroutine", fset.Position(g.Pos()), pkg)
				}
				return true
			})
			for _, id := range topLevel(f) {
				if pkg == "trace" && id.IsExported() && strings.Contains(id.Name, "Parallelism") {
					t.Errorf("trace.%s: the trace layer has a parallelism knob again", id.Name)
				}
			}
		}
	}

	// Algorithm 1 has one entry point and the merge one implementation; each
	// rule is first shown to fail on a tree that breaks it.
	parseSrc := func(src string) []*ast.File {
		f, err := parser.ParseFile(fset, "violation.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return []*ast.File{f}
	}
	if got := alignExportViolations(parseSrc(`package align
import "os"
var PerRank = os.Getenv("ALIGN_PER_RANK") != ""
func Align() {}
func Needed() {}
func AlignPerRank() {}
type classifier struct{}
func (classifier) Classes() {}`)); len(got) != 4 {
		t.Errorf("alignExportViolations finds %d of 4 violations: %q", len(got), got)
	}
	if got := mergeFunctionViolations(parseSrc(`package trace
func MergeClasses() { mergeSignature(); mergeCompatible(); foldMember() }
func foldMember() { foldMember() }
func mergeClassSeqs() { mergeSignature(); foldMember() }
func (c *Collector) Trace() { mergeCompatible() }`)); len(got) != 3 {
		t.Errorf("mergeFunctionViolations finds %d of 3 violations: %q", len(got), got)
	}
	for _, v := range alignExportViolations(parseDir(filepath.Join("internal", "align"))) {
		t.Error(v)
	}
	for _, v := range mergeFunctionViolations(parseDir(filepath.Join("internal", "trace"))) {
		t.Error(v)
	}

	// No command registers a -runtime flag, and only internal/harness/pool.go
	// both starts goroutines and imports a package that can drive a world.
	// (Syntactic: fan-out through a harness wrapper such as RunProgram is not
	// seen.)
	for _, dir := range []string{"cmd", "internal", "examples"} {
		for _, f := range parseDir(dir) {
			path := filepath.ToSlash(fset.Position(f.Package).Filename)
			mayFanOut := path == "internal/harness/pool.go"
			drivesWorlds := false
			for _, imp := range f.Imports {
				drivesWorlds = drivesWorlds || worldDrivers[imp.Path.Value]
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && drivesWorlds && !mayFanOut && !startsCompressor(fset, g) {
					t.Errorf("%s: goroutine started in a file that can drive worlds; "+
						"fan worlds out through internal/harness/pool.go", fset.Position(g.Pos()))
				}
				if rs, ok := n.(*ast.RangeStmt); ok && !strings.HasPrefix(path, "internal/trace/") &&
					isCommGroup(rs.X) && comparesIdent(rs.Body, rs.Value) {
					t.Errorf("%s: a communicator group is scanned for a world rank; "+
						"Trace.CommRankOf is the one translation", fset.Position(rs.Pos()))
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				if pkg == nil {
					return true
				}
				pos := fset.Position(call.Pos())
				if pkg.Name == "flag" {
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Value == `"runtime"` {
							t.Errorf("%s: a -runtime flag is registered", pos)
						}
					}
				}
				return true
			})
		}
	}
}

// methodCalls lists the positions of calls x.name(...) in files.
func methodCalls(fset *token.FileSet, files []*ast.File, name string) []string {
	var at []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
					at = append(at, fset.Position(call.Pos()).String())
				}
			}
			return true
		})
	}
	return at
}

// literalFuncs lists the functions of files that hold a composite literal of
// the named type.
func literalFuncs(files []*ast.File, typ string) []string {
	var funcs []string
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			found := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if id, ok := lit.Type.(*ast.Ident); ok && id.Name == typ {
						found = true
					}
				}
				return !found
			})
			if found {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	return funcs
}

// stringLiteralFiles lists the files holding a string literal that match
// accepts (comments do not count).
func stringLiteralFiles(fset *token.FileSet, files []*ast.File, match func(string) bool) []string {
	var names []string
	for _, f := range files {
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && match(v) {
					found = true
				}
			}
			return !found
		})
		if found {
			names = append(names, filepath.ToSlash(fset.Position(f.Package).Filename))
		}
	}
	return names
}

// funcCall is one call name(...) or x.name(...) and the function declaring
// it: "Name", or "Type.Name" for a method.
type funcCall struct{ fn, name, at string }

// funcCalls lists the calls name(...) and x.name(...) in files, for any of
// the given names, each with its enclosing top-level function (a closure's
// calls count as its declaring function's).
func funcCalls(fset *token.FileSet, files []*ast.File, names ...string) []funcCall {
	var calls []funcCall
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee = fun.Name
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				}
				if slices.Contains(names, callee) {
					calls = append(calls, funcCall{fn: name, name: callee, at: fset.Position(call.Pos()).String()})
				}
				return true
			})
		}
	}
	return calls
}

// rebuildCallers are the functions that may call trace.MergeClasses:
// trace collection, Algorithm 1's rounds and trace.Pinned, the one rebuild of
// a trace from per-receive decisions (Algorithm 2's, a counterexample's).
var rebuildCallers = []string{"Collector.Trace", "Pinned", "alignWith"}

// rebuildViolations lists the calls in files that break the one home of a
// trace rebuild: outside internal/trace only internal/align copies leaves
// with RSD.CopyFor, and only rebuildCallers call the merge.
func rebuildViolations(fset *token.FileSet, files []*ast.File) []string {
	var v []string
	for _, c := range funcCalls(fset, files, "CopyFor", "MergeClasses") {
		path := filepath.ToSlash(c.at)
		switch {
		case c.name == "CopyFor" && !strings.HasPrefix(path, "internal/trace/") && !strings.HasPrefix(path, "internal/align/"):
			v = append(v, c.at+": "+c.fn+" copies trace leaves; trace.Pinned is the one rebuild outside Algorithm 1")
		case c.name == "MergeClasses" && !slices.Contains(rebuildCallers, c.fn):
			v = append(v, c.at+": "+c.fn+" merges classes of ranks; only "+strings.Join(rebuildCallers, ", ")+" may")
		}
	}
	return v
}

// membershipViolations lists the places in files that test whether a
// communicator is listed or a rank is a member of it: a comparison with 0 of
// the length of a communicator's group (read directly or through the variable
// it was assigned to), and a CommRankOf call whose ok result is kept. Decode's
// rules (internal/trace/rules.go) are the one home of those tests.
func membershipViolations(fset *token.FileSet, files []*ast.File) []string {
	var v []string
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			groups := map[string]bool{} // variables assigned a communicator's group
			isGroup := func(e ast.Expr) bool {
				if call, ok := e.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
						arg, _ := call.Args[0].(*ast.Ident)
						return isCommGroup(call.Args[0]) || arg != nil && groups[arg.Name]
					}
				}
				return false
			}
			isZero := func(e ast.Expr) bool {
				lit, ok := e.(*ast.BasicLit)
				return ok && lit.Value == "0"
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for i, rhs := range x.Rhs {
						if id, ok := x.Lhs[i].(*ast.Ident); ok && len(x.Lhs) == len(x.Rhs) && isCommGroup(rhs) {
							groups[id.Name] = true
						}
					}
					if len(x.Lhs) == 2 && isMethodCall(x.Rhs[0], "CommRankOf") {
						if id, _ := x.Lhs[1].(*ast.Ident); id == nil || id.Name != "_" {
							v = append(v, fset.Position(x.Pos()).String()+": "+fn.Name.Name+" keeps CommRankOf's ok result")
						}
					}
				case *ast.BinaryExpr:
					if isGroup(x.X) && isZero(x.Y) || isZero(x.X) && isGroup(x.Y) {
						v = append(v, fset.Position(x.Pos()).String()+": "+fn.Name.Name+" tests whether a communicator is listed")
					}
				}
				return true
			})
		}
	}
	return v
}

// firstPoolReaders are the functions that may read an RSD's first-iteration
// compute pool: the trace lowering, which puts it beside the steady-state mean
// for the interpreter to choose per event, and the coNCePTuaL generator, which
// hoists its surplus in front of the enclosing loop.
var firstPoolReaders = []string{"ConceptualGenerator.leaf", "lowerer.leaf"}

// firstPoolViolations lists the calls in files of RSD.FirstComputeMean made
// outside firstPoolReaders.
func firstPoolViolations(fset *token.FileSet, files []*ast.File) []string {
	var v []string
	for _, c := range funcCalls(fset, files, "FirstComputeMean") {
		if !slices.Contains(firstPoolReaders, c.fn) {
			v = append(v, c.at+": "+c.fn+" reads the first-iteration pool; the lowering and the generator's hoist are its only readers")
		}
	}
	return v
}

// blockingOpViolations lists the calls in files (internal/mpi's) that break
// the one definition of the blocking MPI operations. The transport and round
// primitives they are made of are called only by the executor (slExec
// methods) and by the nonblocking Rank.Isend and Rank.Irecv, and a coroutine
// rank parks (eventLoop.block) at one call, in Rank.issue, which runs the
// executor's functions and re-tests their predicates.
func blockingOpViolations(fset *token.FileSet, files []*ast.File) []string {
	var v []string
	for _, c := range funcCalls(fset, files, "inject", "postRecv", "completeRecv", "chargeCreditStall", "arriveRound", "closeRound") {
		if !strings.HasPrefix(c.fn, "slExec.") && c.fn != "Rank.Isend" && c.fn != "Rank.Irecv" {
			v = append(v, c.at+": "+c.fn+" calls "+c.name+"; the exec functions of stackless.go are the one definition of a blocking operation")
		}
	}
	inIssue := 0
	for _, c := range funcCalls(fset, files, "block") {
		if c.fn == "Rank.issue" {
			if inIssue++; inIssue == 1 {
				continue
			}
		}
		v = append(v, c.at+": "+c.fn+" calls eventLoop.block; Rank.issue's one call is the only park of a coroutine rank")
	}
	return v
}

// transportHomes names, for each step of a transport object's life, the
// functions of internal/mpi that may take it: the world's arenas hand out
// messages only to inject and posted receives only to postRecv; a hold on a
// message is released only where a receive completes (completeRecv, right
// after the drain) and where a send does (execSend past its credit park,
// execDrain marking an Isend done); an arena takes an object back only from
// the message release and from completeRecv, which frees the posted receive.
var transportHomes = map[string][]string{
	"get":            {"Rank.inject", "Rank.postRecv"},
	"releaseMessage": {"Rank.completeRecv", "slExec.execDrain", "slExec.execSend"},
	"put":            {"Rank.completeRecv", "Rank.releaseMessage"},
}

// transportViolations lists the calls in files (internal/mpi's) that break
// the one liveness rule of messages and posted receives (transportHomes).
func transportViolations(fset *token.FileSet, files []*ast.File) []string {
	var v []string
	for _, c := range funcCalls(fset, files, "get", "releaseMessage", "put") {
		if homes := transportHomes[c.name]; !slices.Contains(homes, c.fn) {
			v = append(v, c.at+": "+c.fn+" calls "+c.name+"; only "+strings.Join(homes, ", ")+" may")
		}
	}
	return v
}

// pkgCalls lists the positions of calls pkg.name(...) in files, for any of
// the given names.
func pkgCalls(fset *token.FileSet, files []*ast.File, pkg string, names ...string) []string {
	var at []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
						at = append(at, fset.Position(call.Pos()).String())
					}
				}
			}
			return true
		})
	}
	return at
}

// TestSingleHomesArePinned holds the rules several layers need to their one
// definition each: Section 4.2's communicator → world translation (only
// internal/trace calls Trace.WorldRankOf; everyone else goes through
// RSD.WorldPeerFor / WorldRoot), the cost table of the synchronizing MPI
// operations (collCost literals in one function of internal/mpi), the blocking
// MPI operations (blockingOpViolations: one exec function each, which
// coroutine ranks run through Rank.issue), the life cycle of messages and
// posted receives (transportViolations: one constructor each, and a release
// only where a send or a receive completes), the rebuild of a trace from
// per-receive decisions (rebuildViolations: trace.Pinned, beside collection
// and Algorithm 1 the one caller of the merge), the first-iteration compute
// pool (firstPoolViolations: read by the trace lowering, whose interpreter
// decides per event which mean a rank replays, and by the coNCePTuaL
// generator's hoist of the surplus), the set of target languages (the
// names of the formal-model languages are spelled in one file, internal/core's
// table), the unknown-model error (netmodel's Lookup) and the spelling of a
// task group in a target language (the dialect table of
// internal/conceptual/emit.go is the one file with a string literal holding
// "SUCH THAT", "rank == " or "me == "; the three printers format nothing
// through fmt but errors, and indent through the shared writer), the trace
// rules (membershipViolations: outside internal/trace no production code
// tests whether a communicator is listed or a rank is a member of it) and the
// report of a walk that stops (internal/trace/walk.go is the one file with a
// string literal holding "collective mismatch on comm" or "blocked on", so
// Algorithms 1 and 2 and the MP-net checker build their errors and stuck
// lines from trace.Lowered.Walk's types). Each rule is first shown to fail on
// a source that breaks it.
func TestSingleHomesArePinned(t *testing.T) {
	fset := token.NewFileSet()
	violation, err := parser.ParseFile(fset, "violation.go", `package gen
func peer(t *trace.Trace, r *trace.RSD) int { w, _ := t.WorldRankOf(r.CommID, r.PeerFor(0, t)); return w }
func (r *Rank) Barrier(c *Comm) { r.run(collCost{kind: costBarrier}) }
func (r *Rank) Bcast(c *Comm) { r.run(collCost{kind: costTree}) }
func (x *slExec) execSend(r *Rank) bool { r.inject(0, 0, 0); return false }
func (r *Rank) Isend() { r.inject(0, 0, 0) }
func (r *Rank) stallForCredit(mb *mailbox, msg *message) { r.chargeCreditStall(mb.awaitCredit(msg)) }
func (mb *mailbox) awaitMatch(p *postedRecv) { for p.msg == nil { mb.seq.block(mb.owner) } }
func (r *Rank) issue() { r.w.sched.block(int32(r.rank)) }
func (r *Rank) Irecv() { r.w.msgs.get() }
func (mb *mailbox) take(m *message) { mb.rank.releaseMessage(m) }
func render(lang string) error {
	switch lang {
	case "mpnet", "tla":
		return nil
	}
	return fmt.Errorf("unknown model %q", lang)
}
func (g *cgen) guard(sel TaskSel) {
	g.sb.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.sb, "if (%s) {", fmt.Sprintf("rank == %d", sel.Value))
}
func (r *resolver) leafFor(rank int, rsd *trace.RSD) { rsd.CopyFor(new(trace.RSD), rank, taskset.Of(rank), r.t, 0) }
func CounterexampleTrace(net *Net) { trace.MergeClasses(net.N, nil, nil) }
func Pinned(t *Trace) { MergeClasses(t.N, nil, nil) }
func (c *Cursor) ComputeUS() float64 { return c.cur.FirstComputeMean() }
func (r *resolver) doCollective(rank int, rsd *trace.RSD) bool {
	if comm := r.t.CommGroup(rsd.CommID); len(comm) == 0 {
		return true
	}
	_, member := r.t.CommRankOf(rsd.CommID, rank)
	return member && len(r.t.CommGroup(rsd.CommID)) != r.n
}
func (c *checker) report(ev *Event) (string, error) {
	return "blocked on " + ev.Op.String(), errors.New("mpnet: collective mismatch on comm")
}`, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	broken := []*ast.File{violation}
	modelLanguage := func(s string) bool { return s == "mpnet" || s == "tla" }
	unknownModel := func(s string) bool { return strings.Contains(s, "unknown model") }
	taskGroup := func(s string) bool {
		return strings.Contains(s, "SUCH THAT") || strings.Contains(s, "rank == ") || strings.Contains(s, "me == ")
	}
	collMismatch := func(s string) bool { return strings.Contains(s, "collective mismatch on comm") }
	blockedOn := func(s string) bool { return strings.Contains(s, "blocked on") }
	if got := methodCalls(fset, broken, "WorldRankOf"); len(got) != 1 {
		t.Errorf("methodCalls finds %d of 1 WorldRankOf calls: %q", len(got), got)
	}
	if got := literalFuncs(broken, "collCost"); len(got) != 2 {
		t.Errorf("literalFuncs finds %d of 2 functions with a collCost literal: %q", len(got), got)
	}
	if got := blockingOpViolations(fset, broken); len(got) != 2 ||
		!strings.Contains(got[0], "stallForCredit calls chargeCreditStall") || !strings.Contains(got[1], "mailbox.awaitMatch calls eventLoop.block") {
		t.Errorf("blockingOpViolations finds %q, want stallForCredit's chargeCreditStall and awaitMatch's block", got)
	}
	if got := transportViolations(fset, broken); len(got) != 2 ||
		!strings.Contains(got[0], "Rank.Irecv calls get") || !strings.Contains(got[1], "mailbox.take calls releaseMessage") {
		t.Errorf("transportViolations finds %q, want Irecv's get and take's releaseMessage", got)
	}
	if got := stringLiteralFiles(fset, broken, modelLanguage); len(got) != 1 {
		t.Errorf("stringLiteralFiles misses the language names: %q", got)
	}
	if got := stringLiteralFiles(fset, broken, unknownModel); len(got) != 1 {
		t.Errorf("stringLiteralFiles misses the unknown-model error: %q", got)
	}
	if got := stringLiteralFiles(fset, broken, taskGroup); len(got) != 1 {
		t.Errorf("stringLiteralFiles misses the task-group condition: %q", got)
	}
	for what, match := range map[string]func(string) bool{"rendezvous mismatch": collMismatch, "stuck line": blockedOn} {
		if got := stringLiteralFiles(fset, broken, match); len(got) != 1 {
			t.Errorf("stringLiteralFiles misses the %s: %q", what, got)
		}
	}
	if got := pkgCalls(fset, broken, "fmt", "Sprintf", "Fprintf"); len(got) != 2 {
		t.Errorf("pkgCalls finds %d of 2 fmt formatting calls: %q", len(got), got)
	}
	if got := pkgCalls(fset, broken, "strings", "Repeat"); len(got) != 1 {
		t.Errorf("pkgCalls misses strings.Repeat: %q", got)
	}
	if got := rebuildViolations(fset, broken); len(got) != 2 ||
		!strings.Contains(got[0], "resolver.leafFor copies") || !strings.Contains(got[1], "CounterexampleTrace merges") {
		t.Errorf("rebuildViolations finds %q, want leafFor's CopyFor and CounterexampleTrace's merge", got)
	}
	if got := firstPoolViolations(fset, broken); len(got) != 1 || !strings.Contains(got[0], "Cursor.ComputeUS reads") {
		t.Errorf("firstPoolViolations finds %q, want Cursor.ComputeUS's FirstComputeMean", got)
	}
	if got := membershipViolations(fset, broken); len(got) != 2 ||
		!strings.Contains(got[0], "doCollective tests whether a communicator is listed") || !strings.Contains(got[1], "doCollective keeps CommRankOf's ok") {
		t.Errorf("membershipViolations finds %q, want doCollective's len(comm) == 0 and CommRankOf's ok", got)
	}

	var all []*ast.File
	for _, dir := range []string{"cmd", "internal", "examples"} {
		for _, f := range parseNonTestDir(t, fset, dir) {
			all = append(all, f)
			if path := filepath.ToSlash(fset.Position(f.Package).Filename); !strings.HasPrefix(path, "internal/trace/") {
				for _, at := range methodCalls(fset, []*ast.File{f}, "WorldRankOf") {
					t.Errorf("%s: WorldRankOf called outside internal/trace; RSD.WorldPeerFor and WorldRoot are the one translation", at)
				}
				for _, v := range membershipViolations(fset, []*ast.File{f}) {
					t.Errorf("%s; outside internal/trace, Decode's rules decide which communicators are listed and who is a member", v)
				}
			}
		}
	}
	mpiFiles := parseNonTestDir(t, fset, filepath.Join("internal", "mpi"))
	if got := literalFuncs(mpiFiles, "collCost"); !slices.Equal(got, []string{"roundOf"}) {
		t.Errorf("collCost literals in %q; Rank.roundOf is the one table of rendezvous costs", got)
	}
	for _, v := range blockingOpViolations(fset, mpiFiles) {
		t.Error(v)
	}
	for _, v := range transportViolations(fset, mpiFiles) {
		t.Error(v)
	}
	if got := funcCalls(fset, mpiFiles, "block"); len(got) != 1 {
		t.Errorf("eventLoop.block is called %d times, want once (Rank.issue): %v", len(got), got)
	}
	for _, v := range rebuildViolations(fset, all) {
		t.Error(v)
	}
	for _, v := range firstPoolViolations(fset, all) {
		t.Error(v)
	}
	var mergers []string
	for _, c := range funcCalls(fset, all, "MergeClasses") {
		mergers = append(mergers, c.fn)
	}
	if slices.Sort(mergers); !slices.Equal(mergers, rebuildCallers) {
		t.Errorf("MergeClasses is called by %q, want exactly %q", mergers, rebuildCallers)
	}
	if got := stringLiteralFiles(fset, all, modelLanguage); !slices.Equal(got, []string{"internal/core/render.go"}) {
		t.Errorf("language names spelled in %q; internal/core/render.go holds the one table", got)
	}
	if got := stringLiteralFiles(fset, all, unknownModel); !slices.Equal(got, []string{"internal/netmodel/netmodel.go"}) {
		t.Errorf("unknown-model error built in %q; netmodel.Lookup is the one lookup", got)
	}
	if got := stringLiteralFiles(fset, all, taskGroup); !slices.Equal(got, []string{"internal/conceptual/emit.go"}) {
		t.Errorf("task-group conditions spelled in %q; the dialect table of internal/conceptual/emit.go is the one place", got)
	}
	for what, match := range map[string]func(string) bool{"rendezvous mismatch error": collMismatch, "stuck-line format": blockedOn} {
		if got := stringLiteralFiles(fset, all, match); !slices.Equal(got, []string{"internal/trace/walk.go"}) {
			t.Errorf("the %s is spelled in %q; internal/trace/walk.go is the one place", what, got)
		}
	}
	var printers []*ast.File
	for _, f := range all {
		switch filepath.ToSlash(fset.Position(f.Package).Filename) {
		case "internal/conceptual/print.go", "internal/conceptual/cgen.go", "internal/conceptual/gogen.go":
			printers = append(printers, f)
		}
	}
	if len(printers) != 3 {
		t.Errorf("found %d of the 3 printers (print.go, cgen.go, gogen.go)", len(printers))
	}
	for _, at := range pkgCalls(fset, printers, "fmt", "Sprintf", "Fprintf", "Sprint", "Fprint", "Sprintln", "Fprintln") {
		t.Errorf("%s: a printer formats through fmt; statements go through the conceptual writer's appenders (fmt.Errorf is for errors)", at)
	}
	for _, at := range pkgCalls(fset, printers, "strings", "Repeat") {
		t.Errorf("%s: a printer indents by hand; the conceptual writer indents", at)
	}
}

// testFacing are the production symbols kept for tests alone, on purpose:
// MPI API surface no kernel happens to use, the ablation benchmarks' window
// knob, two observers, and internal/golden, the golden-file mechanism every
// test package shares.
var testFacing = []string{
	"internal/golden.ClockDigest",
	"internal/golden.Diff",
	"internal/golden.LoadMap",
	"internal/golden.Map.CheckField",
	"internal/golden.Numbering",
	"internal/golden.Numbering.Of",
	"internal/golden.Read",
	"internal/golden.Renumber",
	"internal/golden.Text",
	"internal/golden.TextDigest",
	"internal/golden.TraceDigest",
	"internal/mpi.Rank.Sendrecv",
	"internal/mpi.Rank.CommSplit",
	"internal/mpi.Rank.CommDup",
	"internal/mpi.Engine.cachedWorlds",
	"internal/service.Client.Cancel",
	"internal/trace.Collector.SetWindow",
	"internal/trace.NewBuilderWindow",
}

// stdMethods are method names the standard library calls through its own
// interfaces (fmt, errors, encoding/json, net/http, sort, container/heap,
// flag, io); no call in the tree need name them.
var stdMethods = []string{"String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON", "ServeHTTP",
	"Len", "Less", "Swap", "Push", "Pop", "Set", "Write", "Read", "Close"}

// prodDecl is one top-level declaration of production code: the symbols it
// declares (a const group declares several and lives or dies as one, so an
// enumeration may hold values nothing names yet) and the symbols its text
// refers to.
type prodDecl struct {
	syms []string // "dir.Name", or "dir.Type.Method"
	pos  token.Position
	root bool     // main, init, a blank value: alive without a referrer
	refs []string // "dir.Name" for package-level names, ".Name" for members
}

// fileRefs lists what node refers to: q.Name through an import of this
// module as "dir.Name", any other x.Name (and an interface's method) as
// ".Name", and a bare identifier as "dir.Name" of its own package.
func fileRefs(dir string, imports map[string]string, node ast.Node) []string {
	var refs []string
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if q, ok := x.X.(*ast.Ident); ok && imports[q.Name] != "" {
				refs = append(refs, imports[q.Name]+"."+x.Sel.Name)
			} else {
				refs = append(refs, "."+x.Sel.Name)
				ast.Inspect(x.X, visit)
			}
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					refs = append(refs, "."+name.Name)
				}
			}
		case *ast.Ident:
			refs = append(refs, dir+"."+x.Name)
		}
		return true
	}
	ast.Inspect(node, visit)
	return refs
}

// moduleImports maps a file's import names to the module-relative
// directories they name ("mpi" -> "internal/mpi").
func moduleImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(path, "repro/")
		if !ok {
			continue
		}
		name := filepath.Base(dir)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = dir
	}
	return imports
}

// prodDecls lists the top-level declarations of files, all of one directory.
func prodDecls(fset *token.FileSet, dir string, files []*ast.File) []prodDecl {
	var decls []prodDecl
	for _, f := range files {
		imports := moduleImports(f)
		add := func(node ast.Node, root bool, names ...string) {
			d := prodDecl{pos: fset.Position(node.Pos()), root: root, refs: fileRefs(dir, imports, node)}
			for _, name := range names {
				d.syms = append(d.syms, dir+"."+name)
			}
			decls = append(decls, d)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok {
						recv = idx.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				add(d, d.Recv == nil && (name == "main" || name == "init"), name)
			case *ast.GenDecl:
				var group []string
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s, false, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if d.Tok == token.CONST {
								group = append(group, id.Name)
							} else {
								add(s, id.Name == "_", id.Name)
							}
						}
					}
				}
				if len(group) > 0 {
					add(d, false, group...)
				}
			}
		}
	}
	return decls
}

// orphans returns the symbols of decls that nothing alive refers to: alive
// are the roots, whatever extern (benchmark/, the allow-list) names, and,
// to a fixed point, whatever an alive declaration other than itself names.
// The analysis is syntactic: a method is named by any x.Name, so two methods
// of one name keep each other alive.
func orphans(decls []prodDecl, extern []string) []string {
	byRef := map[string][]int{} // reference -> declarations it keeps alive
	for i, d := range decls {
		for _, sym := range d.syms {
			byRef[sym] = append(byRef[sym], i)
			if parts := strings.Split(sym, "."); len(parts) == 3 {
				byRef["."+parts[2]] = append(byRef["."+parts[2]], i) // a method: named by any x.Method
			}
		}
	}
	alive := make([]bool, len(decls))
	var work []int
	mark := func(from int, ref string) {
		for _, i := range byRef[ref] {
			if i != from && !alive[i] {
				alive[i] = true
				work = append(work, i)
			}
		}
	}
	for i, d := range decls {
		if d.root {
			alive[i] = true
			work = append(work, i)
		}
	}
	for _, ref := range extern {
		mark(-1, ref)
	}
	for _, m := range stdMethods {
		mark(-1, "."+m)
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ref := range decls[i].refs {
			mark(i, ref)
		}
	}
	var dead []string
	for i, d := range decls {
		if !alive[i] {
			dead = append(dead, d.syms[0]+" ("+d.pos.String()+")")
		}
	}
	return dead
}

// TestNoOrphanedProductionSymbols fails when a top-level function, method,
// type or value outside _test.go files is named neither by another live
// production declaration nor by benchmark/ — code only tests call (or
// nothing calls) is not production code. What is deliberately test-facing is
// on the testFacing list, which may hold no symbol production code uses.
func TestNoOrphanedProductionSymbols(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(src string) []prodDecl {
		f, err := parser.ParseFile(fset, "orphan.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return prodDecls(fset, "internal/stats", []*ast.File{f})
	}
	// Shown to fail first: a function nothing names, one only it calls (dead
	// by the fixed point), a method, and a pair that only name each other.
	if got := orphans(parse(`package stats
func init() { used() }
func used() {}
func Summarize() { percentileSorted() }
func percentileSorted() {}
func (s Summary) Percentile() {}
type Summary struct{}
func ping() { pong() }
func pong() { ping() }
const (
	A = iota
	B
)
var table = []int{A}
`), []string{"internal/stats.table"}); len(got) != 6 {
		t.Errorf("orphans finds %d of 6 dead declarations: %q", len(got), got)
	}

	var decls []prodDecl
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			var files []*ast.File
			matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
			for _, m := range matches {
				if strings.HasSuffix(m, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, m, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				files = append(files, f)
			}
			decls = append(decls, prodDecls(fset, filepath.ToSlash(path), files)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var extern []string
	matches, _ := filepath.Glob(filepath.Join("benchmark", "*.go"))
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		extern = append(extern, fileRefs("benchmark", moduleImports(f), f)...)
	}
	if len(decls) < 1000 || len(extern) < 1000 {
		t.Fatalf("parsed %d declarations and %d benchmark references; the tree is not where this test looks", len(decls), len(extern))
	}

	dead := orphans(decls, extern)
	for _, name := range testFacing {
		if !slices.ContainsFunc(dead, func(d string) bool { return strings.HasPrefix(d, name+" ") }) {
			t.Errorf("%s is on the test-facing list but production code (or benchmark/) uses it, or it is gone; drop it from the list", name)
		}
	}
	for _, d := range orphans(decls, append(extern, testFacing...)) {
		t.Errorf("%s: only tests name it, or nothing does; delete it (with the tests that only exercised it) or list it as test-facing", d)
	}
}
