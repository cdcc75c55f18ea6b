package conceptual

import (
	"fmt"
	"strings"
)

// Print renders the program in coNCePTuaL's English-like source form. The
// output round-trips through Parse.
func Print(p *Program) string {
	var sb strings.Builder
	// A statement prints to 60-140 bytes; growing once up front instead of
	// by doubling halves what a large program's rendering allocates.
	sb.Grow(128 * p.StmtCount())
	for _, c := range p.Comments {
		fmt.Fprintf(&sb, "# %s\n", c)
	}
	if p.NumTasks > 0 {
		fmt.Fprintf(&sb, "REQUIRE num_tasks = %d\n", p.NumTasks)
	}
	if len(p.Comments) > 0 || p.NumTasks > 0 {
		sb.WriteByte('\n')
	}
	printStmts(&sb, p.Stmts, 0)
	return sb.String()
}

func printStmts(sb *strings.Builder, stmts []Stmt, depth int) {
	for i, s := range stmts {
		printStmt(sb, s, depth)
		if i < len(stmts)-1 {
			sb.WriteString(" THEN")
		}
		sb.WriteByte('\n')
	}
}

func printStmt(sb *strings.Builder, s Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	sb.WriteString(indent)
	switch x := s.(type) {
	case *LoopStmt:
		fmt.Fprintf(sb, "FOR %d REPETITIONS {\n", x.Count)
		printStmts(sb, x.Body, depth+1)
		sb.WriteString(indent)
		sb.WriteString("}")
	case *SendStmt:
		sb.WriteString(x.Who.String())
		if x.Async {
			sb.WriteString(" ASYNCHRONOUSLY")
		}
		verb := " SEND A "
		if x.Who.Kind == SelOne {
			verb = " SENDS A "
		}
		fmt.Fprintf(sb, "%s%s TO %s", verb, sizePhrase(x.Size), x.Dest)
	case *RecvStmt:
		sb.WriteString(x.Who.String())
		if x.Async {
			sb.WriteString(" ASYNCHRONOUSLY")
		}
		verb := " RECEIVE A "
		if x.Who.Kind == SelOne {
			verb = " RECEIVES A "
		}
		fmt.Fprintf(sb, "%s%s FROM %s", verb, sizePhrase(x.Size), x.Source)
	case *AwaitStmt:
		fmt.Fprintf(sb, "%s AWAIT COMPLETION", awaitWho(x.Who))
	case *SyncStmt:
		if x.Who.Kind == SelOne {
			fmt.Fprintf(sb, "%s SYNCHRONIZES", x.Who)
		} else {
			fmt.Fprintf(sb, "%s SYNCHRONIZE", x.Who)
		}
	case *ReduceStmt:
		verb := " REDUCE A "
		if x.Srcs.Kind == SelOne {
			verb = " REDUCES A "
		}
		fmt.Fprintf(sb, "%s%s%s TO %s", x.Srcs, verb, sizePhrase(x.Size), destPhrase(x.Dsts))
	case *MulticastStmt:
		verb := " MULTICAST A "
		if x.Srcs.Kind == SelOne {
			verb = " MULTICASTS A "
		}
		fmt.Fprintf(sb, "%s%s%s TO %s", x.Srcs, verb, sizePhrase(x.Size), destPhrase(x.Dsts))
	case *ComputeStmt:
		verb := " COMPUTE FOR "
		if x.Who.Kind == SelOne {
			verb = " COMPUTES FOR "
		}
		fmt.Fprintf(sb, "%s%s%s MICROSECONDS", x.Who, verb, trimFloat(x.USecs))
	case *ResetStmt:
		fmt.Fprintf(sb, "%s RESET THEIR COUNTERS", x.Who)
	case *LogStmt:
		fmt.Fprintf(sb, "%s LOG THE MEDIAN OF elapsed_usecs AS %q", x.Who, x.Label)
	default:
		fmt.Fprintf(sb, "# unknown statement %T", s)
	}
}

// awaitWho renders the selector of AWAIT COMPLETION (coNCePTuaL always
// phrases it plurally).
func awaitWho(s TaskSel) string { return s.String() }

// destPhrase renders a destination selector; "ALL TASKS t" reads better as
// "ALL TASKS" in destination position.
func destPhrase(s TaskSel) string {
	if s.Kind == SelAll {
		return "ALL TASKS"
	}
	return s.String()
}

// sizePhrase renders a byte count with friendly units when exact.
func sizePhrase(size int) string {
	switch {
	case size >= 1<<20 && size%(1<<20) == 0:
		return plural(size>>20, "MEGABYTE")
	case size >= 1<<10 && size%(1<<10) == 0:
		return plural(size>>10, "KILOBYTE")
	default:
		return plural(size, "BYTE")
	}
}

func plural(n int, unit string) string {
	if n == 1 {
		return fmt.Sprintf("1 %s MESSAGE", unit)
	}
	return fmt.Sprintf("%d %s MESSAGE", n, unit)
}

// trimFloat renders a duration without trailing zeros.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
