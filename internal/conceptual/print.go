package conceptual

// Print renders the program in coNCePTuaL's English-like source form. The
// output round-trips through Parse.
func Print(p *Program) string {
	// A statement prints to 60-140 bytes.
	w := newWriter(conceptualDialect, p.NumTasks, 0, 128*p.StmtCount())
	for _, c := range p.Comments {
		w.S("# ").S(c).End()
	}
	if p.NumTasks > 0 {
		w.S("REQUIRE num_tasks = ").Int(p.NumTasks).End()
	}
	if len(p.Comments) > 0 || p.NumTasks > 0 {
		w.End()
	}
	printStmts(w, p.Stmts)
	return w.String()
}

func printStmts(w *writer, stmts []Stmt) {
	for i, s := range stmts {
		printStmt(w, s)
		if i < len(stmts)-1 {
			w.S(" THEN")
		}
		w.End()
	}
}

func printStmt(w *writer, s Stmt) {
	switch x := s.(type) {
	case *LoopStmt:
		w.OpenLoop(x.Count)
		printStmts(w, x.Body)
		w.CloseLoop()
	case *SendStmt:
		w.Stmt(x.Who).async(x.Async).verb(x.Who, " SEND").size(x.Size).S(" TO ").Rank(x.Dest)
	case *RecvStmt:
		w.Stmt(x.Who).async(x.Async).verb(x.Who, " RECEIVE").size(x.Size).S(" FROM ").Rank(x.Source)
	case *AwaitStmt:
		// coNCePTuaL always phrases AWAIT plurally.
		w.Stmt(x.Who).S(" AWAIT COMPLETION")
	case *SyncStmt:
		w.Stmt(x.Who).verb(x.Who, " SYNCHRONIZE")
	case *ReduceStmt:
		w.Stmt(x.Srcs).verb(x.Srcs, " REDUCE").size(x.Size).S(" TO ").dest(x.Dsts)
	case *MulticastStmt:
		w.Stmt(x.Srcs).verb(x.Srcs, " MULTICAST").size(x.Size).S(" TO ").dest(x.Dsts)
	case *ComputeStmt:
		w.Stmt(x.Who).verb(x.Who, " COMPUTE").S(" FOR ").Fixed3(x.USecs).S(" MICROSECONDS")
	case *ResetStmt:
		w.Stmt(x.Who).S(" RESET THEIR COUNTERS")
	case *LogStmt:
		w.Stmt(x.Who).S(" LOG THE MEDIAN OF elapsed_usecs AS ").Quote(x.Label)
	}
}

func (w *writer) async(async bool) *writer {
	if async {
		w.S(" ASYNCHRONOUSLY")
	}
	return w
}

// verb appends a verb, in the third person singular after a single task.
func (w *writer) verb(who TaskSel, verb string) *writer {
	w.S(verb)
	if who.Kind == SelOne {
		w.S("S")
	}
	return w
}

// dest appends a destination selector; "ALL TASKS t" reads better as
// "ALL TASKS" in destination position.
func (w *writer) dest(s TaskSel) *writer {
	if s.Kind == SelAll {
		return w.S("ALL TASKS")
	}
	return w.Cond(s)
}

// size appends a message of a byte count, in friendly units when exact.
func (w *writer) size(size int) *writer {
	unit := " BYTE MESSAGE"
	switch {
	case size >= 1<<20 && size%(1<<20) == 0:
		size, unit = size>>20, " MEGABYTE MESSAGE"
	case size >= 1<<10 && size%(1<<10) == 0:
		size, unit = size>>10, " KILOBYTE MESSAGE"
	}
	return w.S(" A ").Int(size).S(unit)
}
