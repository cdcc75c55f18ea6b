package conceptual

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a coNCePTuaL program in the form emitted by Print. It exists
// so that generated benchmarks are not merely human-readable but also
// human-editable: edit the text, parse, re-run.
func Parse(src string) (*Program, error) {
	p := newParser(src)
	prog := &Program{}
	for {
		tok := p.peek()
		switch {
		case tok.kind == tokComment:
			prog.Comments = append(prog.Comments, tok.text)
			p.next()
		case tok.kind == tokWord && tok.text == "REQUIRE":
			p.next()
			if err := p.expectWord("num_tasks"); err != nil {
				return nil, err
			}
			if err := p.expectSym("="); err != nil {
				return nil, err
			}
			n, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			prog.NumTasks = n
		default:
			goto body
		}
	}
body:
	stmts, err := p.parseStmts(false)
	if err != nil {
		return nil, err
	}
	if tok := p.peek(); tok.kind != tokEOF {
		return nil, errAt(tok, "unexpected trailing input %q", tok.text)
	}
	prog.Stmts = stmts
	return prog, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokWord
	tokInt
	tokFloat
	tokString
	tokSym
	tokComment
)

type token struct {
	kind tokKind
	text string
	line int
}

// parser scans src on demand: the grammar is LL(1), so one token of
// lookahead is all that exists of the token stream at any time. Tokens are
// substrings of src wherever the text allows it.
type parser struct {
	src  string
	off  int   // where the token after tok starts
	line int   // line of off; newlines inside string literals are not counted
	tok  token // the lookahead
}

func newParser(src string) *parser {
	p := &parser{src: src, line: 1}
	p.tok = p.scan()
	return p
}

func (p *parser) peek() token { return p.tok }

// next consumes the lookahead and returns it; at the end of the input it
// keeps returning the EOF token.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.scan()
	}
	return t
}

// scan returns the token starting at or after p.off. Every byte sequence
// lexes: a literal a number cannot be read from is rejected where its value
// is needed (expectInt, COMPUTE's duration).
func (p *parser) scan() token {
	src, i := p.src, p.off
blanks:
	for ; i < len(src); i++ {
		switch src[i] {
		case '\n':
			p.line++
		case ' ', '\t', '\r':
		default:
			break blanks
		}
	}
	if i >= len(src) {
		p.off = len(src)
		return token{kind: tokEOF, line: p.line}
	}
	t := token{line: p.line}
	j := i + 1
	switch c := src[i]; {
	case c == '#':
		for j < len(src) && src[j] != '\n' {
			j++
		}
		t.kind, t.text = tokComment, strings.TrimSpace(src[i+1:j])
	case c == '"':
		for j < len(src) && src[j] != '"' {
			if src[j] == '\\' {
				j++
			}
			j++
		}
		j = min(j+1, len(src))
		raw := src[i:j]
		unq, err := strconv.Unquote(raw)
		if err != nil {
			unq = strings.Trim(raw, `"`)
		}
		t.kind, t.text = tokString, unq
	case isDigit(c):
		t.kind = tokInt
		for j < len(src) && (isDigit(src[j]) || src[j] == '.') {
			if src[j] == '.' {
				t.kind = tokFloat
			}
			j++
		}
		t.text = src[i:j]
	case isWordChar(c):
		for j < len(src) && isWordChar(src[j]) {
			j++
		}
		t.kind, t.text = tokWord, src[i:j]
	case j < len(src) && (c == '/' && src[j] == '\\' || (c == '>' || c == '<') && src[j] == '='):
		j++
		t.kind, t.text = tokSym, src[i:j]
	case c < utf8.RuneSelf:
		t.kind, t.text = tokSym, src[i:j]
	default:
		// A stray byte names itself as the Latin-1 character it would be.
		t.kind, t.text = tokSym, string(rune(c))
	}
	p.off = j
	return t
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isWordChar classifies bytes, not runes: the letters are ASCII's and
// Latin-1's, so a UTF-8 sequence splits where one of its bytes is not one.
func isWordChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

// errAt reports a problem with token t, on t's line.
func errAt(t token, format string, args ...any) error {
	return fmt.Errorf("conceptual: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectWord(w string) error {
	t := p.next()
	if t.kind != tokWord || t.text != w {
		return errAt(t, "expected %q, found %q", w, t.text)
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	t := p.next()
	if t.kind != tokSym || t.text != s {
		return errAt(t, "expected %q, found %q", s, t.text)
	}
	return nil
}

func (p *parser) expectInt() (int, error) {
	t := p.next()
	if t.kind != tokInt {
		return 0, errAt(t, "expected integer, found %q", t.text)
	}
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, errAt(t, "malformed number %q", t.text)
	}
	return v, nil
}

func (p *parser) acceptWord(w string) bool {
	if t := p.peek(); t.kind == tokWord && t.text == w {
		p.next()
		return true
	}
	return false
}

// parseStmts parses THEN-separated statements until EOF or a closing brace
// (when inBlock).
func (p *parser) parseStmts(inBlock bool) ([]Stmt, error) {
	var stmts []Stmt
	for {
		for p.peek().kind == tokComment {
			p.next()
		}
		tok := p.peek()
		if tok.kind == tokEOF || (inBlock && tok.kind == tokSym && tok.text == "}") {
			return stmts, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		p.acceptWord("THEN")
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	tok := p.peek()
	if tok.kind == tokWord && tok.text == "FOR" {
		p.next()
		count, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("REPETITIONS"); err != nil {
			return nil, err
		}
		if err := p.expectSym("{"); err != nil {
			return nil, err
		}
		body, err := p.parseStmts(true)
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("}"); err != nil {
			return nil, err
		}
		return &LoopStmt{Count: count, Body: body}, nil
	}
	who, err := p.parseSel()
	if err != nil {
		return nil, err
	}
	return p.parseVerb(who)
}

// parseSel parses "ALL TASKS t", "TASK 3", "TASKS t SUCH THAT ...", and the
// destination form "ALL TASKS".
func (p *parser) parseSel() (TaskSel, error) {
	switch {
	case p.acceptWord("ALL"):
		if err := p.expectWord("TASKS"); err != nil {
			return TaskSel{}, err
		}
		// Optional task variable.
		if t := p.peek(); t.kind == tokWord && isTaskVar(t.text) {
			p.next()
		}
		return AllTasks, nil
	case p.acceptWord("TASK"):
		v, err := p.expectInt()
		if err != nil {
			return TaskSel{}, err
		}
		return OneTask(v), nil
	case p.acceptWord("TASKS"):
		// "TASKS t SUCH THAT <predicate>"
		v := p.next()
		if v.kind != tokWord || !isTaskVar(v.text) {
			return TaskSel{}, errAt(v, "expected task variable, found %q", v.text)
		}
		if err := p.expectWord("SUCH"); err != nil {
			return TaskSel{}, err
		}
		if err := p.expectWord("THAT"); err != nil {
			return TaskSel{}, err
		}
		return p.parsePredicate(v.text)
	default:
		t := p.peek()
		return TaskSel{}, errAt(t, "expected task selector, found %q", t.text)
	}
}

func isTaskVar(s string) bool {
	return len(s) >= 1 && unicode.IsLower(rune(s[0])) && s != "num_tasks" && s != "elapsed_usecs"
}

func (p *parser) parsePredicate(varName string) (TaskSel, error) {
	if err := p.expectWord(varName); err != nil {
		return TaskSel{}, err
	}
	switch tok := p.next(); {
	case tok.kind == tokSym && tok.text == ">=":
		lo, err := p.expectInt()
		if err != nil {
			return TaskSel{}, err
		}
		if err := p.expectSym(`/\`); err != nil {
			return TaskSel{}, err
		}
		if err := p.expectWord(varName); err != nil {
			return TaskSel{}, err
		}
		if err := p.expectSym("<="); err != nil {
			return TaskSel{}, err
		}
		hi, err := p.expectInt()
		if err != nil {
			return TaskSel{}, err
		}
		return TaskSel{Kind: SelRange, Lo: lo, Hi: hi}, nil
	case tok.kind == tokWord && tok.text == "MOD":
		stride, err := p.expectInt()
		if err != nil {
			return TaskSel{}, err
		}
		if err := p.expectSym("="); err != nil {
			return TaskSel{}, err
		}
		off, err := p.expectInt()
		if err != nil {
			return TaskSel{}, err
		}
		return TaskSel{Kind: SelStride, Stride: stride, Offset: off}, nil
	case tok.kind == tokWord && tok.text == "IS":
		if err := p.expectWord("IN"); err != nil {
			return TaskSel{}, err
		}
		if err := p.expectSym("{"); err != nil {
			return TaskSel{}, err
		}
		var members []int
		for {
			v, err := p.expectInt()
			if err != nil {
				return TaskSel{}, err
			}
			members = append(members, v)
			if t := p.peek(); t.kind == tokSym && t.text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSym("}"); err != nil {
			return TaskSel{}, err
		}
		return TaskSel{Kind: SelEnum, Enum: members}, nil
	default:
		return TaskSel{}, errAt(tok, "unsupported predicate starting with %q", tok.text)
	}
}

// parseRankExpr parses "TASK 3", "TASK t", "TASK (t+1) MOD num_tasks".
func (p *parser) parseRankExpr() (RankExpr, error) {
	if err := p.expectWord("TASK"); err != nil {
		return RankExpr{}, err
	}
	tok := p.peek()
	switch {
	case tok.kind == tokInt:
		v, err := p.expectInt()
		return AbsRank(v), err
	case tok.kind == tokWord && isTaskVar(tok.text):
		p.next()
		return RelRank(0), nil
	case tok.kind == tokSym && tok.text == "(":
		p.next()
		v := p.next()
		if v.kind != tokWord || !isTaskVar(v.text) {
			return RankExpr{}, errAt(v, "expected task variable in rank expression, found %q", v.text)
		}
		if err := p.expectSym("+"); err != nil {
			return RankExpr{}, err
		}
		off, err := p.expectInt()
		if err != nil {
			return RankExpr{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return RankExpr{}, err
		}
		if err := p.expectWord("MOD"); err != nil {
			return RankExpr{}, err
		}
		if err := p.expectWord("num_tasks"); err != nil {
			return RankExpr{}, err
		}
		return RelRank(off), nil
	default:
		return RankExpr{}, errAt(tok, "expected rank expression, found %q", tok.text)
	}
}

// parseSize parses "<n> BYTE|KILOBYTE|MEGABYTE MESSAGE".
func (p *parser) parseSize() (int, error) {
	n, err := p.expectInt()
	if err != nil {
		return 0, err
	}
	unit := p.next()
	if unit.kind != tokWord {
		return 0, errAt(unit, "expected size unit, found %q", unit.text)
	}
	mult := 1
	switch unit.text {
	case "BYTE", "BYTES":
	case "KILOBYTE", "KILOBYTES":
		mult = 1 << 10
	case "MEGABYTE", "MEGABYTES":
		mult = 1 << 20
	default:
		return 0, errAt(unit, "unknown size unit %q", unit.text)
	}
	if n > math.MaxInt/mult {
		return 0, errAt(unit, "message size %d %s overflows", n, unit.text)
	}
	if err := p.expectWord("MESSAGE"); err != nil {
		return 0, err
	}
	return n * mult, nil
}

func (p *parser) parseVerb(who TaskSel) (Stmt, error) {
	async := p.acceptWord("ASYNCHRONOUSLY")
	tok := p.next()
	if tok.kind != tokWord {
		return nil, errAt(tok, "expected verb, found %q", tok.text)
	}
	verb := strings.TrimSuffix(tok.text, "S")
	switch verb {
	case "SEND":
		if err := p.expectWord("A"); err != nil {
			return nil, err
		}
		size, err := p.parseSize()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("TO"); err != nil {
			return nil, err
		}
		dest, err := p.parseRankExpr()
		if err != nil {
			return nil, err
		}
		return &SendStmt{Who: who, Async: async, Size: size, Dest: dest}, nil
	case "RECEIVE":
		if err := p.expectWord("A"); err != nil {
			return nil, err
		}
		size, err := p.parseSize()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("FROM"); err != nil {
			return nil, err
		}
		src, err := p.parseRankExpr()
		if err != nil {
			return nil, err
		}
		return &RecvStmt{Who: who, Async: async, Size: size, Source: src}, nil
	case "AWAIT":
		if err := p.expectWord("COMPLETION"); err != nil {
			return nil, err
		}
		return &AwaitStmt{Who: who}, nil
	case "SYNCHRONIZE":
		return &SyncStmt{Who: who}, nil
	case "REDUCE":
		if err := p.expectWord("A"); err != nil {
			return nil, err
		}
		size, err := p.parseSize()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("TO"); err != nil {
			return nil, err
		}
		dsts, err := p.parseSel()
		if err != nil {
			return nil, err
		}
		return &ReduceStmt{Srcs: who, Dsts: dsts, Size: size}, nil
	case "MULTICAST":
		if err := p.expectWord("A"); err != nil {
			return nil, err
		}
		size, err := p.parseSize()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("TO"); err != nil {
			return nil, err
		}
		dsts, err := p.parseSel()
		if err != nil {
			return nil, err
		}
		return &MulticastStmt{Srcs: who, Dsts: dsts, Size: size}, nil
	case "COMPUTE":
		if err := p.expectWord("FOR"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokInt && t.kind != tokFloat {
			return nil, errAt(t, "expected duration, found %q", t.text)
		}
		us, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errAt(t, "malformed number %q", t.text)
		}
		if err := p.expectWord("MICROSECONDS"); err != nil {
			return nil, err
		}
		return &ComputeStmt{Who: who, USecs: us}, nil
	case "RESET":
		if err := p.expectWord("THEIR"); err != nil {
			return nil, err
		}
		if err := p.expectWord("COUNTERS"); err != nil {
			return nil, err
		}
		return &ResetStmt{Who: who}, nil
	case "LOG":
		for _, w := range []string{"THE", "MEDIAN", "OF", "elapsed_usecs", "AS"} {
			if err := p.expectWord(w); err != nil {
				return nil, err
			}
		}
		t := p.next()
		if t.kind != tokString {
			return nil, errAt(t, "expected label string, found %q", t.text)
		}
		return &LogStmt{Who: who, Label: t.text}, nil
	default:
		return nil, errAt(tok, "unknown verb %q", tok.text)
	}
}
