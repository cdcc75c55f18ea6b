package conceptual

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/golden"
)

// dumpProgram renders every field of the AST, one statement per line, so two
// parsers agree on a program exactly when their dumps are equal.
func dumpProgram(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "comments %q\nnum_tasks %d\n", p.Comments, p.NumTasks)
	dumpStmts(&sb, p.Stmts, 0)
	return sb.String()
}

func dumpStmts(sb *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range stmts {
		if lp, ok := s.(*LoopStmt); ok {
			fmt.Fprintf(sb, "%sLoop %d\n", indent, lp.Count)
			dumpStmts(sb, lp.Body, depth+1)
			continue
		}
		// TaskSel is taskset.Predicate; the golden file names it as the
		// selector type it was recorded under.
		stmt := fmt.Sprintf("%#v", reflect.ValueOf(s).Elem().Interface())
		fmt.Fprintf(sb, "%s%s\n", indent, strings.ReplaceAll(stmt, "taskset.Predicate{", "conceptual.TaskSel{"))
	}
}

// parseOutcome is what the golden file records for one input: the error
// string, or the AST dump (its digest when the dump is long).
func parseOutcome(src string) string {
	prog, err := Parse(src)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	dump := dumpProgram(prog)
	if len(dump) > 4<<10 {
		return fmt.Sprintf("ok stmts=%d sha256=%s\n", prog.StmtCount(), golden.TextDigest(dump))
	}
	return fmt.Sprintf("ok stmts=%d\n%s", prog.StmtCount(), dump)
}

// splitCases parses a file of "=== name" lines, each followed by that case's
// text, into name -> text.
func splitCases(text string) map[string]string {
	cases := make(map[string]string)
	for _, c := range strings.Split("\n"+text, "\n=== ")[1:] {
		name, body, _ := strings.Cut(c, "\n")
		cases[name] = body
	}
	return cases
}

// goldenInputs returns the testdata programs by name: every *.ncptl file,
// and the cases of cases.txt.
func goldenInputs(t testing.TB) (names []string, srcs map[string]string) {
	t.Helper()
	srcs = make(map[string]string)
	files, err := filepath.Glob("testdata/*.ncptl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs (%v)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	b, err := os.ReadFile("testdata/cases.txt")
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range splitCases(string(b)) {
		srcs["cases.txt: "+name] = body
	}
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, srcs
}

// TestParseGolden pins Parse's result — the whole AST or the error string —
// on the testdata programs. testdata/parse.golden was written by the
// pre-tokenising lexer this package had before the streaming scanner; the
// only entries that changed with the scanner are the two deliberate fixes
// (malformed numbers are errors; an error names the offending token's line).
func TestParseGolden(t *testing.T) {
	names, srcs := goldenInputs(t)
	var got strings.Builder
	for _, name := range names {
		fmt.Fprintf(&got, "=== %s\n%s", name, parseOutcome(srcs[name]))
	}
	golden.Text(t, filepath.Join("testdata", "parse.golden"), []byte(got.String()))
}

// FuzzParse feeds the parser arbitrary source, seeded with the testdata
// programs (generated bt, lu, sweep3d and is sources among them). It must
// never panic, and what it accepts must print to a fixed point of
// Parse∘Print: the printed form parses again and prints to itself.
func FuzzParse(f *testing.F) {
	names, srcs := goldenInputs(f)
	for _, name := range names {
		f.Add(srcs[name])
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(prog)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form of an accepted program does not parse: %v\ninput:\n%s\nprinted:\n%s", err, src, printed)
		}
		if reprinted := Print(again); reprinted != printed {
			t.Fatalf("Print is not a fixed point of Parse∘Print\nfirst:\n%s\nsecond:\n%s", printed, reprinted)
		}
	})
}
