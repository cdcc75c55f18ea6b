package conceptual

import (
	"strconv"
	"strings"

	"repro/internal/taskset"
)

// dialect is one target language's row of the table below: how it spells a
// task group, a peer rank, a communicator and a loop, and what it indents
// with. The table is the only place a taskset.Predicate or a RankExpr becomes
// text; Print, GenerateC and GenerateGo all render through a writer over one
// row. Templates hold $0 and $1 where their two integers go.
type dialect struct {
	indent string
	// Task groups: every task, one task ($0), a range ($0..$1), a residue
	// class ($0 = stride, $1 = offset) and an enumeration (item $0).
	all, one, span, stride                 string
	enumOpen, enumItem, enumSep, enumClose string
	// guardOpen and guardClose wrap a group's condition into the line that
	// opens a block around the group's statement; a language that names the
	// group as the statement's subject leaves them empty.
	guardOpen, guardClose string
	// Peer ranks: absolute ($0), the executing task itself (empty: spelled as
	// relative with offset 0), relative ($0 = offset, $1 = task count).
	abs, self, rel string
	// Communicators: the world, and the startup split $0 (numbered from 1).
	world, comm string
	// loop is a loop's header ($0 = the loop's number, $1 = its trip count).
	loop string
}

// The dialect table.
var (
	conceptualDialect = &dialect{
		indent: "  ",
		all:    "ALL TASKS t", one: "TASK $0",
		span:     `TASKS t SUCH THAT t >= $0 /\ t <= $1`,
		stride:   "TASKS t SUCH THAT t MOD $0 = $1",
		enumOpen: "TASKS t SUCH THAT t IS IN {", enumItem: "$0", enumSep: ", ", enumClose: "}",
		abs: "TASK $0", self: "TASK t", rel: "TASK (t+$0) MOD num_tasks",
		loop: "FOR $1 REPETITIONS {",
	}
	cDialect = &dialect{
		indent: "  ",
		one:    "rank == $0", span: "rank >= $0 && rank <= $1", stride: "rank % $0 == $1",
		enumItem: "rank == $0", enumSep: " || ",
		guardOpen: "if (", guardClose: ") {",
		abs: "$0", self: "rank", rel: "(rank + $0) % num_tasks",
		world: "MPI_COMM_WORLD", comm: "comm$0",
		loop: "for (int i$0 = 0; i$0 < $1; i$0++) {",
	}
	goDialect = &dialect{
		indent: "\t",
		one:    "me == $0", span: "me >= $0 && me <= $1", stride: "me%$0 == $1",
		enumItem: "me == $0", enumSep: " || ",
		guardOpen: "if ", guardClose: " {",
		abs: "$0", self: "me", rel: "(me + $0) % $1",
		world: "world", comm: "c$0",
		loop: "for i$0 := 0; i$0 < $1; i$0++ {",
	}
)

// writer appends generated source to one buffer. A statement is one chain:
// Stmt opens it for a task group (indentation, and the guard block or subject
// the dialect wants), the appenders fill it in, End closes the line and the
// guard. Nothing on the per-statement path goes through fmt.
type writer struct {
	d     *dialect
	buf   []byte
	n     int  // task count, for dialects whose rank expressions spell it
	depth int  // current indentation, in units of d.indent
	loops int  // loops opened so far; numbers loop variables
	owed  bool // the open statement sits in a guard block that End closes
}

// newWriter returns a writer for an n-task program in dialect d, starting at
// the given indentation depth, with room for sizeHint bytes.
func newWriter(d *dialect, n, depth, sizeHint int) *writer {
	return &writer{d: d, n: n, depth: depth, buf: make([]byte, 0, sizeHint)}
}

// String returns the text written so far.
func (w *writer) String() string { return string(w.buf) }

// S appends s.
func (w *writer) S(s string) *writer {
	w.buf = append(w.buf, s...)
	return w
}

// Int appends v in decimal.
func (w *writer) Int(v int) *writer {
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
	return w
}

// Quote appends s as a double-quoted, escaped string literal.
func (w *writer) Quote(s string) *writer {
	w.buf = strconv.AppendQuote(w.buf, s)
	return w
}

// Fixed3 appends v with three decimals, its trailing zeros (and a
// then-trailing point) trimmed.
func (w *writer) Fixed3(v float64) *writer {
	start := len(w.buf)
	b := strconv.AppendFloat(w.buf, v, 'f', 3, 64)
	for len(b) > start+1 && b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	if b[len(b)-1] == '.' {
		b = b[:len(b)-1]
	}
	w.buf = b
	return w
}

// Float appends v in the shortest form that parses back to it.
func (w *writer) Float(v float64) *writer {
	w.buf = strconv.AppendFloat(w.buf, v, 'g', -1, 64)
	return w
}

// tmpl appends a dialect template with $0 and $1 replaced by a0 and a1.
func (w *writer) tmpl(t string, a0, a1 int) *writer {
	for {
		i := strings.IndexByte(t, '$')
		if i < 0 {
			return w.S(t)
		}
		v := a0
		if t[i+1] == '1' {
			v = a1
		}
		w.S(t[:i]).Int(v)
		t = t[i+2:]
	}
}

// Cond appends the dialect's spelling of a task group.
func (w *writer) Cond(p taskset.Predicate) *writer {
	d := w.d
	switch p.Kind {
	case taskset.KindAll:
		return w.S(d.all)
	case taskset.KindSingleton:
		return w.tmpl(d.one, p.Value, 0)
	case taskset.KindRange:
		return w.tmpl(d.span, p.Lo, p.Hi)
	case taskset.KindStride:
		return w.tmpl(d.stride, p.Stride, p.Offset)
	}
	w.S(d.enumOpen)
	for i, m := range p.Enum {
		if i > 0 {
			w.S(d.enumSep)
		}
		w.tmpl(d.enumItem, m, 0)
	}
	return w.S(d.enumClose)
}

// Rank appends the dialect's spelling of a peer rank.
func (w *writer) Rank(r RankExpr) *writer {
	switch {
	case r.Kind == RankAbs:
		return w.tmpl(w.d.abs, r.Value, 0)
	case r.Value == 0 && w.d.self != "":
		return w.S(w.d.self)
	}
	return w.tmpl(w.d.rel, r.Value, w.n)
}

// Comm appends the dialect's name of a communicator.
func (w *writer) Comm(ref commRef) *writer {
	if ref == worldRef {
		return w.S(w.d.world)
	}
	return w.tmpl(w.d.comm, streamID(ref), 0)
}

// indented starts a line at the current depth.
func (w *writer) indented() *writer {
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, w.d.indent...)
	}
	return w
}

// NL ends a line and starts the next one of the same statement.
func (w *writer) NL() *writer { return w.S("\n").indented() }

// Stmt opens a statement executed by the tasks of who: with who as its
// subject, or inside a block guarded by who's condition unless that is every
// task.
func (w *writer) Stmt(who taskset.Predicate) *writer {
	w.indented()
	switch {
	case w.d.guardOpen == "":
		w.Cond(who)
	case who.Kind != taskset.KindAll:
		w.S(w.d.guardOpen).Cond(who).S(w.d.guardClose)
		w.depth++
		w.owed = true
		w.NL()
	}
	return w
}

// End closes the open line, and the guard block Stmt opened around it.
func (w *writer) End() {
	w.S("\n")
	if w.owed {
		w.owed = false
		w.depth--
		w.indented().S("}\n")
	}
}

// OpenLoop writes the header of a loop of count iterations; what follows is
// its body.
func (w *writer) OpenLoop(count int) {
	w.loops++
	w.indented().tmpl(w.d.loop, w.loops, count)
	w.depth++
	w.S("\n")
}

// CloseLoop opens the line that closes the innermost loop; End finishes it.
func (w *writer) CloseLoop() *writer {
	w.depth--
	return w.indented().S("}")
}
