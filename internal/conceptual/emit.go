package conceptual

import (
	"strconv"
	"strings"

	"repro/internal/taskset"
)

// Dialect is one target language's row of the table below: how it spells a
// task group, a peer rank and a loop, and what it indents with. The table is
// the only place a taskset.Predicate or a RankExpr becomes text; Print,
// GenerateC and core.GoGenerator all render through a Writer over one row.
// Templates hold $0 and $1 where their two integers go.
type Dialect struct {
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
	// loop is a loop's header ($0 = the loop's number, $1 = its trip count),
	// loopFirst an optional first body line ($0 likewise).
	loop, loopFirst string
}

// The dialect table.
var (
	Conceptual = &Dialect{
		indent: "  ",
		all:    "ALL TASKS t", one: "TASK $0",
		span:     `TASKS t SUCH THAT t >= $0 /\ t <= $1`,
		stride:   "TASKS t SUCH THAT t MOD $0 = $1",
		enumOpen: "TASKS t SUCH THAT t IS IN {", enumItem: "$0", enumSep: ", ", enumClose: "}",
		abs: "TASK $0", self: "TASK t", rel: "TASK (t+$0) MOD num_tasks",
		loop: "FOR $1 REPETITIONS {",
	}
	C = &Dialect{
		indent: "  ",
		one:    "rank == $0", span: "rank >= $0 && rank <= $1", stride: "rank % $0 == $1",
		enumItem: "rank == $0", enumSep: " || ",
		guardOpen: "if (", guardClose: ") {",
		abs: "$0", self: "rank", rel: "(rank + $0) % num_tasks",
		loop: "for (int i$0 = 0; i$0 < $1; i$0++) {",
	}
	Go = &Dialect{
		indent: "\t",
		one:    "me == $0", span: "me >= $0 && me <= $1", stride: "me%$0 == $1",
		enumItem: "me == $0", enumSep: " || ",
		guardOpen: "if ", guardClose: " {",
		abs: "$0", rel: "(me + $0) % $1",
		loop: "for i$0 := 0; i$0 < $1; i$0++ {", loopFirst: "_ = i$0",
	}
)

// Writer appends generated source to one buffer. A statement is one chain:
// Stmt opens it for a task group (indentation, and the guard block or subject
// the dialect wants), the appenders fill it in, End closes the line and the
// guard. Nothing on the per-statement path goes through fmt.
type Writer struct {
	d     *Dialect
	buf   []byte
	n     int  // task count, for dialects whose rank expressions spell it
	depth int  // current indentation, in units of d.indent
	loops int  // loops opened so far; numbers loop variables
	owed  bool // the open statement sits in a guard block that End closes
}

// NewWriter returns a writer for an n-task program in dialect d, starting at
// the given indentation depth, with room for sizeHint bytes.
func NewWriter(d *Dialect, n, depth, sizeHint int) *Writer {
	return &Writer{d: d, n: n, depth: depth, buf: make([]byte, 0, sizeHint)}
}

// String returns the text written so far.
func (w *Writer) String() string { return string(w.buf) }

// S appends s.
func (w *Writer) S(s string) *Writer {
	w.buf = append(w.buf, s...)
	return w
}

// Int appends v in decimal.
func (w *Writer) Int(v int) *Writer {
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
	return w
}

// Quote appends s as a double-quoted, escaped string literal.
func (w *Writer) Quote(s string) *Writer {
	w.buf = strconv.AppendQuote(w.buf, s)
	return w
}

// Fixed3 appends v with three decimals, or with its trailing zeros (and a
// then-trailing point) trimmed.
func (w *Writer) Fixed3(v float64, trim bool) *Writer {
	start := len(w.buf)
	b := strconv.AppendFloat(w.buf, v, 'f', 3, 64)
	if trim {
		for len(b) > start+1 && b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
		if b[len(b)-1] == '.' {
			b = b[:len(b)-1]
		}
	}
	w.buf = b
	return w
}

// tmpl appends a dialect template with $0 and $1 replaced by a0 and a1.
func (w *Writer) tmpl(t string, a0, a1 int) *Writer {
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
func (w *Writer) Cond(p taskset.Predicate) *Writer {
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
func (w *Writer) Rank(r RankExpr) *Writer {
	switch {
	case r.Kind == RankAbs:
		return w.tmpl(w.d.abs, r.Value, 0)
	case r.Value == 0 && w.d.self != "":
		return w.S(w.d.self)
	}
	return w.tmpl(w.d.rel, r.Value, w.n)
}

// indented starts a line at the current depth.
func (w *Writer) indented() *Writer {
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, w.d.indent...)
	}
	return w
}

// NL ends a line and starts the next one of the same statement.
func (w *Writer) NL() *Writer { return w.S("\n").indented() }

// Stmt opens a statement executed by the tasks of who: with who as its
// subject, or inside a block guarded by who's condition unless that is every
// task.
func (w *Writer) Stmt(who taskset.Predicate) *Writer {
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
func (w *Writer) End() {
	w.S("\n")
	if w.owed {
		w.owed = false
		w.depth--
		w.indented().S("}\n")
	}
}

// OpenLoop writes the header of a loop of count iterations; what follows is
// its body.
func (w *Writer) OpenLoop(count int) {
	w.loops++
	w.indented().tmpl(w.d.loop, w.loops, count)
	w.depth++
	if w.d.loopFirst != "" {
		w.NL().tmpl(w.d.loopFirst, w.loops, 0)
	}
	w.S("\n")
}

// CloseLoop opens the line that closes the innermost loop; End finishes it.
func (w *Writer) CloseLoop() *Writer {
	w.depth--
	return w.indented().S("}")
}
