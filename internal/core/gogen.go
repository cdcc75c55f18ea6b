package core

import (
	"repro/internal/conceptual"
	"repro/internal/trace"
)

// GoGenerator is the coNCePTuaL generator whose Source is its program in Go.
type GoGenerator struct{ ConceptualGenerator }

// NewGoGenerator returns a fresh Go-source generator.
func NewGoGenerator() *GoGenerator { return &GoGenerator{*NewConceptualGenerator(nil)} }

// Source returns the traversed trace's program as Go (conceptual.GenerateGo).
func (g *GoGenerator) Source() (string, error) {
	prog, err := g.Program()
	if err != nil {
		return "", err
	}
	return conceptual.GenerateGo(prog), nil
}

// GenerateGo runs the full pipeline and renders its program as Go.
func GenerateGo(t *trace.Trace, opts *Options) (string, error) {
	return NewPipeline(t, opts).Render("go")
}
