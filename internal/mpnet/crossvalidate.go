package mpnet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/taskset"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// hstVerify records end-to-end verification latency in microseconds
// (exported on /metrics as mpnet.verify_us).
var hstVerify = telemetry.NewHistogram("mpnet.verify_us")

// Report is the complete verification result for one trace: the net
// statistics, the checker's verdict, and the cross-validation against
// the paper's Algorithm 2 resolver.
type Report struct {
	Ranks     int `json:"ranks"`
	Events    int `json:"events"`
	Channels  int `json:"channels"`
	Wildcards int `json:"wildcards"`

	// Verdict is the checker's exploration of the wildcard net (every
	// admitted match assignment at small scale).
	Verdict *Verdict `json:"verdict"`
	// ResolvedVerdict checks the trace the resolver emitted: wildcard-
	// free, hence a single deterministic execution — the proof that the
	// resolution Algorithm 2 chose is deadlock-free. Nil when the trace
	// had no wildcards (Verdict already covers it) or the resolver
	// failed.
	ResolvedVerdict *Verdict `json:"resolved_verdict,omitempty"`

	// ResolverDeadlock carries the resolver's own deadlock report when
	// Algorithm 2 itself got stuck ("" otherwise). When the checker's
	// exploration is exhaustive the two must agree: a stuck resolver
	// traversal is an admitted execution of the net, so the checker finds
	// a counterexample; conversely a checker counterexample with a clean
	// resolver is exactly the case the paper's sufficient condition
	// misses.
	ResolverDeadlock string `json:"resolver_deadlock,omitempty"`
	// ResolverAdmitted reports that the match assignment Algorithm 2
	// chose is admitted by the net and runs to completion — the
	// wildcard-resolution soundness check. Meaningful only when the trace
	// has wildcards and the resolver succeeded.
	ResolverAdmitted bool `json:"resolver_admitted"`
	// ResolverBlocked describes the stuck state of a rejected resolver
	// assignment (empty in the expected case).
	ResolverBlocked []string `json:"resolver_blocked,omitempty"`

	// ReplayConfirmed is set by ConfirmWithReplay: the counterexample
	// trace was re-executed on the discrete-event engine and deadlocked
	// there too.
	ReplayConfirmed bool   `json:"replay_confirmed,omitempty"`
	ReplayError     string `json:"replay_error,omitempty"`

	// VerifyUS is the wall-clock verification time in microseconds.
	VerifyUS float64 `json:"verify_us"`
}

// DeadlockFree is the headline answer: the exploration was exhaustive
// and no admitted execution deadlocks.
func (r *Report) DeadlockFree() bool {
	return r.Verdict != nil && r.Verdict.DeadlockFree
}

// Passed reports whether verification found no defect — the pass
// criterion the CLIs and benchd gate on. A report passes when the
// explored space produced no counterexample AND, for a trace with
// wildcard receives, the cross-validation held: Algorithm 2 produced an
// assignment the net admits and the resolved wildcard-free trace — a
// single deterministic execution, so checked exactly at any scale — is
// deadlock-free. DeadlockFree() is strictly stronger (it additionally
// requires the full wildcard space to have been explored exhaustively);
// Passed does not fail a bounded UNKNOWN over a huge wildcard space when
// the resolved execution carries an exact proof.
func (r *Report) Passed() bool {
	if r.Verdict == nil || r.Verdict.Counterexample != nil {
		return false
	}
	if r.Wildcards == 0 {
		return r.Verdict.DeadlockFree
	}
	if r.ResolverDeadlock != "" || !r.ResolverAdmitted {
		return false
	}
	return r.ResolvedVerdict != nil && r.ResolvedVerdict.DeadlockFree
}

// String renders the report as the multi-line human-readable summary the
// CLIs print to stderr under -verify.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpnet: %d ranks, %d events, %d channels, %d wildcard receives\n",
		r.Ranks, r.Events, r.Channels, r.Wildcards)
	if v := r.Verdict; v != nil {
		fmt.Fprintf(&b, "mpnet: explored %d states (%d branch points, %d executions)",
			v.StatesExplored, v.BranchPoints, v.Executions)
		if !v.Exhaustive {
			b.WriteString(" [state bound hit: NOT exhaustive]")
		}
		b.WriteByte('\n')
		switch {
		case v.DeadlockFree:
			b.WriteString("mpnet: verdict DEADLOCK-FREE (exhaustive at this scale)\n")
		case v.Counterexample != nil:
			fmt.Fprintf(&b, "mpnet: verdict DEADLOCK — counterexample with %d wildcard choice(s):\n",
				len(v.Counterexample.Choices))
			for _, ch := range v.Counterexample.Choices {
				fmt.Fprintf(&b, "mpnet:   rank %d event %d (site %d): match wildcard recv from rank %d tag %d\n",
					ch.Rank, ch.Event, ch.Site, ch.Source, ch.Tag)
			}
			for _, blk := range v.Counterexample.Blocked {
				fmt.Fprintf(&b, "mpnet:   blocked: %s\n", blk)
			}
		default:
			b.WriteString("mpnet: verdict UNKNOWN (bounded exploration found no deadlock)\n")
		}
	}
	if r.Wildcards > 0 {
		switch {
		case r.ResolverDeadlock != "":
			fmt.Fprintf(&b, "mpnet: resolver (Algorithm 2) reports: %s\n", r.ResolverDeadlock)
		case r.ResolverAdmitted:
			b.WriteString("mpnet: resolver assignment admitted by the net (cross-validation OK)\n")
		default:
			fmt.Fprintf(&b, "mpnet: resolver assignment REJECTED by the net: %s\n",
				strings.Join(r.ResolverBlocked, "; "))
		}
		if rv := r.ResolvedVerdict; rv != nil {
			if rv.DeadlockFree {
				b.WriteString("mpnet: resolved trace proven deadlock-free\n")
			} else {
				b.WriteString("mpnet: resolved trace NOT proven deadlock-free\n")
			}
		}
	}
	if r.ReplayConfirmed {
		b.WriteString("mpnet: counterexample confirmed by concrete replay on the event engine\n")
	} else if r.ReplayError != "" {
		fmt.Fprintf(&b, "mpnet: counterexample replay: %s\n", r.ReplayError)
	}
	fmt.Fprintf(&b, "mpnet: verification took %.0f us", r.VerifyUS)
	return b.String()
}

// verify lowers t into its MP-net, explores it, and cross-validates the
// wildcard resolver's assignment, returning the report and the net. The input
// trace is not modified. When ctx is done the exploration stops and its error
// is returned.
func verify(ctx context.Context, t *trace.Trace, opts *Options) (*Report, *Net, error) {
	defer telemetry.Region("mpnet.verify")()
	start := time.Now()
	net, err := FromTrace(t, opts)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Ranks:     net.N,
		Events:    net.Events,
		Channels:  len(net.Chans),
		Wildcards: net.Wildcards,
	}
	if rep.Verdict, err = net.CheckContext(ctx, opts); err != nil {
		return nil, nil, err
	}

	if net.Wildcards > 0 {
		resolved, rerr := wildcard.Resolve(t)
		if rerr != nil {
			rep.ResolverDeadlock = rerr.Error()
		} else {
			assign, aerr := ResolverAssignment(net, resolved)
			if aerr != nil {
				return nil, nil, aerr
			}
			rep.ResolverAdmitted, rep.ResolverBlocked = net.ForcedRun(assign)
			rnet, nerr := FromTrace(resolved, opts)
			if nerr != nil {
				return nil, nil, nerr
			}
			if rep.ResolvedVerdict, err = rnet.CheckContext(ctx, opts); err != nil {
				return nil, nil, err
			}
		}
	}
	rep.VerifyUS = float64(time.Since(start)) / float64(time.Microsecond)
	hstVerify.Observe(rep.VerifyUS)
	return rep, net, nil
}

// VerifyWithReplayContext runs Verify and, when the checker produced a
// counterexample, confirms it concretely: the pinned interleaving is
// re-executed on the discrete-event engine under model and must deadlock
// there too. This is the full service-facing entry point — a reported
// deadlock always carries its engine confirmation — and a service job's ctx
// stops the exploration when the job is cancelled or times out.
func VerifyWithReplayContext(ctx context.Context, t *trace.Trace, opts *Options, model *netmodel.Model) (*Report, error) {
	rep, net, err := verify(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	rep.ConfirmWithReplay(net, model)
	return rep, nil
}

// VerifyWithReplay is VerifyWithReplayContext without cancellation.
func VerifyWithReplay(t *trace.Trace, opts *Options, model *netmodel.Model) (*Report, error) {
	return VerifyWithReplayContext(context.Background(), t, opts, model)
}

// ResolverAssignment aligns the resolved trace against the net's
// expanded event streams and extracts, for every wildcard receive
// instance, the world source Algorithm 2 fixed it to. Resolution only
// rewrites wildcard peers — recompression and re-merging preserve each
// rank's event sequence — so the two expansions align index by index.
func ResolverAssignment(net *Net, resolved *trace.Trace) (map[[2]int]int, error) {
	assign := make(map[[2]int]int)
	for rank := 0; rank < net.N; rank++ {
		events := resolved.EventsOf(rank)
		if len(events) != len(net.Procs[rank]) {
			return nil, fmt.Errorf("mpnet: resolved trace misaligned for rank %d: %d events vs %d in the net",
				rank, len(events), len(net.Procs[rank]))
		}
		for i := range net.Procs[rank] {
			ev := &net.Procs[rank][i]
			if !ev.Wild {
				continue
			}
			leaf := events[i]
			if leaf.Op != ev.Op {
				return nil, fmt.Errorf("mpnet: resolved trace misaligned for rank %d event %d: %v vs %v",
					rank, i, leaf.Op, ev.Op)
			}
			assign[[2]int{rank, i}] = leaf.WorldPeerFor(rank, resolved)
		}
	}
	return assign, nil
}

// CounterexampleTrace pins every wildcard receive of the net's trace to
// a concrete source — the counterexample's choice where one was
// committed, the first statically enabled source otherwise (sound: an
// uncommitted wildcard receives no message in the deadlocked execution,
// so its pinned source never changes what arrives) — and returns the
// wildcard-free trace. Replaying it on the event engine re-executes the
// deadlocking interleaving concretely.
func CounterexampleTrace(net *Net, cx *Counterexample) (*trace.Trace, error) {
	if cx == nil {
		return nil, fmt.Errorf("mpnet: no counterexample to reconstruct")
	}
	pinned := make(map[[2]int]int, len(cx.Choices))
	for _, ch := range cx.Choices {
		pinned[[2]int{ch.Rank, ch.Event}] = ch.Source
	}
	t := net.Trace
	seqs := make([][]trace.Node, net.N)
	for rank := 0; rank < net.N; rank++ {
		b := trace.NewBuilder()
		for i := range net.Procs[rank] {
			ev := &net.Procs[rank][i]
			leaf := new(trace.RSD)
			ev.Leaf.CopyFor(leaf, rank, taskset.Of(rank), t, ev.ComputeUS)
			leaf.Wildcard = false
			if ev.Wild {
				world, ok := pinned[[2]int{rank, i}]
				if !ok {
					if len(ev.Sources) > 0 {
						world = ev.Sources[0]
					} else {
						world = 0 // unmatchable either way: no compatible sender exists
					}
				}
				wildcard.Pin(t, leaf, world)
			}
			b.Append(leaf)
		}
		seqs[rank] = b.Seq()
	}
	return trace.MergeRankSeqsOwned(net.N, trace.CloneComms(t.Comms), seqs), nil
}

// ConfirmWithReplay re-executes the report's counterexample on the
// discrete-event engine: the pinned trace is replayed under model and
// the engine must prove the deadlock (its event queue empties with live
// ranks blocked). Sets ReplayConfirmed/ReplayError and returns whether
// the deadlock was confirmed. A report without a counterexample is a
// no-op.
func (r *Report) ConfirmWithReplay(net *Net, model *netmodel.Model) bool {
	if r.Verdict == nil || r.Verdict.Counterexample == nil {
		return false
	}
	confirmed, err := ConfirmCounterexample(net, r.Verdict.Counterexample, model)
	r.ReplayConfirmed = confirmed
	if err != nil && !confirmed {
		r.ReplayError = err.Error()
	}
	return confirmed
}

// ConfirmCounterexample replays the counterexample's pinned trace and
// reports whether the engine concretely deadlocked. The returned error
// is the engine's deadlock report on success, or the reason the
// confirmation could not be carried out.
func ConfirmCounterexample(net *Net, cx *Counterexample, model *netmodel.Model) (bool, error) {
	pinnedTrace, err := CounterexampleTrace(net, cx)
	if err != nil {
		return false, err
	}
	// The event engine is the default runtime; it proves a deadlock the
	// moment its queue empties with live ranks still blocked.
	_, rerr := replay.Replay(pinnedTrace, model)
	if rerr == nil {
		return false, fmt.Errorf("mpnet: counterexample replay completed without deadlocking")
	}
	if errors.Is(rerr, mpi.ErrDeadlock) {
		return true, rerr
	}
	return false, rerr
}
