package core

import (
	"fmt"
	"strings"

	"repro/internal/conceptual"
	"repro/internal/trace"
)

// languages is the one table of target languages, in the order help texts
// and errors list them. The executable backends render the prepared trace —
// conceptual and c through its coNCePTuaL program — while mpnet and tla
// start again from the trace as collected and run Algorithm 1 only: the
// formal model's point is the wildcard nondeterminism Algorithm 2 eliminates.
var languages = []struct {
	name   string
	render func(p *Pipeline) (string, error)
}{
	{"conceptual", fromProgram(conceptual.Print)},
	{"c", fromProgram(conceptual.GenerateC)},
	{"go", func(p *Pipeline) (string, error) {
		prepared, err := p.prepare()
		if err != nil {
			return "", err
		}
		return GenerateGo(prepared, nil)
	}},
	{"mpnet", func(p *Pipeline) (string, error) {
		raw, err := GenerateMPNet(p.raw, nil)
		return string(raw), err
	}},
	{"tla", func(p *Pipeline) (string, error) { return GenerateMPNetTLA(p.raw, nil, "CommModel") }},
}

func fromProgram(print func(*conceptual.Program) string) func(*Pipeline) (string, error) {
	return func(p *Pipeline) (string, error) {
		prog, err := p.Program()
		if err != nil {
			return "", err
		}
		return print(prog), nil
	}
}

// LanguageNames lists the target languages, comma-separated, for help texts.
func LanguageNames() string {
	names := make([]string, len(languages))
	for i, l := range languages {
		names[i] = l.name
	}
	return strings.Join(names, ", ")
}

// lookupLanguage finds a target language's renderer; the error for an
// unknown one lists the table.
func lookupLanguage(lang string) (func(*Pipeline) (string, error), error) {
	for _, l := range languages {
		if l.name == lang {
			return l.render, nil
		}
	}
	return nil, fmt.Errorf("unknown target language %q (want one of %s)", lang, LanguageNames())
}

// CheckLanguage returns the error Render would return for an unknown target
// language, without rendering anything.
func CheckLanguage(lang string) error {
	_, err := lookupLanguage(lang)
	return err
}

// Pipeline carries one trace to its generated artifacts: Algorithms 2 and 1
// and the coNCePTuaL traversal each run once, on first use, however many
// languages are rendered from it.
type Pipeline struct {
	raw      *trace.Trace
	opts     *Options
	prepared *trace.Trace
	prog     *conceptual.Program
}

// NewPipeline starts a pipeline on the trace as collected (nil opts for
// defaults).
func NewPipeline(t *trace.Trace, opts *Options) *Pipeline {
	if opts == nil {
		opts = &Options{}
	}
	return &Pipeline{raw: t, opts: opts}
}

func (p *Pipeline) prepare() (*trace.Trace, error) {
	if p.prepared == nil {
		prepared, err := Prepare(p.raw, p.opts)
		if err != nil {
			return nil, err
		}
		p.prepared = prepared
	}
	return p.prepared, nil
}

// Program returns the coNCePTuaL program of the prepared trace — the
// executable specification whichever language is rendered.
func (p *Pipeline) Program() (*conceptual.Program, error) {
	if p.prog == nil {
		prepared, err := p.prepare()
		if err != nil {
			return nil, err
		}
		// On a prepared trace Generate's own Prepare is the two O(r) pre-checks.
		prog, err := Generate(prepared, p.opts)
		if err != nil {
			return nil, err
		}
		p.prog = prog
	}
	return p.prog, nil
}

// Render returns the artifact in the named target language.
func (p *Pipeline) Render(lang string) (string, error) {
	render, err := lookupLanguage(lang)
	if err != nil {
		return "", err
	}
	return render(p)
}
