package harness

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/netmodel"
)

// OverlapCompute rewrites the program so that computation overlaps
// communication: within every loop body, COMPUTE statements are moved after
// the asynchronous sends and receives they previously preceded (but before
// the AWAIT), so the messages are in flight while the processor works. This
// is the second what-if of Section 5.4 — estimating the payoff of
// overlapping communication and computation before implementing it.
func OverlapCompute(p *conceptual.Program) *conceptual.Program {
	return &conceptual.Program{
		Comments: append(append([]string(nil), p.Comments...),
			"computation reordered to overlap asynchronous communication"),
		NumTasks: p.NumTasks,
		Stmts:    overlapStmts(p.Stmts),
	}
}

func overlapStmts(stmts []conceptual.Stmt) []conceptual.Stmt {
	out := make([]conceptual.Stmt, 0, len(stmts))
	var pending []conceptual.Stmt // COMPUTE statements awaiting a better spot
	flush := func() {
		out = append(out, pending...)
		pending = nil
	}
	asyncSeen := false
	for _, s := range stmts {
		switch x := s.(type) {
		case *conceptual.LoopStmt:
			flush()
			asyncSeen = false
			out = append(out, &conceptual.LoopStmt{Count: x.Count, Body: overlapStmts(x.Body)})
		case *conceptual.ComputeStmt:
			// Hold the compute; it will be placed after the next run of
			// asynchronous operations (or flushed at a synchronous point).
			pending = append(pending, x)
		case *conceptual.SendStmt:
			out = append(out, x)
			if x.Async {
				asyncSeen = true
			} else {
				flush()
				asyncSeen = false
			}
		case *conceptual.RecvStmt:
			out = append(out, x)
			if x.Async {
				asyncSeen = true
			} else {
				flush()
				asyncSeen = false
			}
		case *conceptual.AwaitStmt:
			if asyncSeen {
				// The held compute lands here: after the posts, before the
				// wait — fully overlapped.
				flush()
			}
			out = append(out, x)
			asyncSeen = false
		default:
			flush()
			asyncSeen = false
			out = append(out, s)
		}
	}
	flush()
	return out
}

// OverlapPoint compares total run time before and after the overlap
// transform for one app.
type OverlapPoint struct {
	App                      string
	Ranks                    int
	BaselineUS, OverlappedUS float64
	// SpeedupPct is the total-time reduction the overlap buys.
	SpeedupPct float64
}

// OverlapStudy traces the apps, generates their benchmarks, applies
// OverlapCompute, and measures the payoff on the given platform model.
func OverlapStudy(appNames []string, n int, class apps.Class, model *netmodel.Model) ([]OverlapPoint, error) {
	for _, name := range appNames {
		if apps.ByName(name) == nil {
			return nil, fmt.Errorf("overlap: unknown app %q", name)
		}
	}
	points := make([]OverlapPoint, len(appNames))
	err := forEachNamed(len(appNames), func(i int) string {
		return fmt.Sprintf("overlap %s/%d", appNames[i], n)
	}, func(i int) error {
		name := appNames[i]
		ranks := apps.ByName(name).RanksAtMost(n)
		run, err := TraceApp(name, apps.NewConfig(ranks, class), model)
		if err != nil {
			return err
		}
		bench, err := GenerateAndRun(run.Trace, model)
		if err != nil {
			return err
		}
		overlapped, err := RunProgram(OverlapCompute(bench.Program), ranks, model)
		if err != nil {
			return err
		}
		points[i] = OverlapPoint{
			App:          name,
			Ranks:        ranks,
			BaselineUS:   bench.ElapsedUS,
			OverlappedUS: overlapped.ElapsedUS,
			SpeedupPct:   100 * (bench.ElapsedUS - overlapped.ElapsedUS) / bench.ElapsedUS,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
