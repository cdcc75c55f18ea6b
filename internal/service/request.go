// Package service is the benchd subsystem: a long-running HTTP daemon that
// turns generation requests — an application/scale selection or a raw
// uploaded scalatrace-go trace — into executable coNCePTuaL/C benchmarks with
// the predicted per-rank virtual timing and the mpiP-style profile, by
// composing the repository's pipeline packages (apps → mpi/trace →
// wildcard/align → core/conceptual) behind a content-addressed result cache
// and a bounded, context-cancellable job queue.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// MaxRunnableRanks caps the world size the daemon will simulate. The trace
// codec's own bound (trace.MaxDecodeRanks) only protects the parser; running
// a simulated world still costs real per-rank memory and event-loop time, so
// a hostile few-byte upload declaring a huge nprocs must be refused at
// admission, not discovered as an allocation failure inside a worker. The
// ceiling tracks the discrete-event engine's proven scale:
// BenchmarkRankScaling drives 1,048,576-rank worlds, and a replayed rank is a
// stackless cursor plus its mailbox — no goroutine, no stack — so a
// 262144-rank world costs a few hundred MiB. The previous 65536 cap dated
// from goroutine-backed replay ranks, whose 8 KiB minimum stacks alone put a
// quarter-million-rank world past 2 GiB before any payload state; the
// daemon's worlds are also pooled across jobs (harness.SharedEngine), so
// repeated large requests reset one cached world instead of thrashing the
// allocator. The saturation test still pins that a full queue of
// maximum-size requests is refused with 429, not absorbed.
const MaxRunnableRanks = 262144

// Request is one benchmark-generation request. Exactly one of App or Trace
// must be set: App names a workload from the built-in suite to trace first,
// Trace supplies a raw scalatrace-go trace (the text format) directly.
type Request struct {
	// App is a workload name from the application suite (see apps.Names).
	App string `json:"app,omitempty"`
	// N is the rank count for an App request.
	N int `json:"n,omitempty"`
	// Class is the NPB problem class (S, W, A, B, C); default W.
	Class string `json:"class,omitempty"`
	// Model is the platform model preset (netmodel.PresetNames); default
	// bluegene.
	Model string `json:"model,omitempty"`
	// Lang is the target language (core.LanguageNames); default conceptual.
	// mpnet and tla emit the formal communication model —
	// the MP-net JSON artifact or its TLA+ rendering — instead of an
	// executable benchmark.
	Lang string `json:"lang,omitempty"`
	// Verify asks the daemon to run the bounded model checker over the
	// trace's MP-net: the result carries a verification report (deadlock
	// verdict, wildcard-resolution cross-validation, and — on failure — a
	// minimal counterexample confirmed by concrete replay). POST /v1/verify
	// forces this on.
	Verify bool `json:"verify,omitempty"`
	// Trace is a raw scalatrace-go trace document; mutually exclusive with
	// App. It is decoded under the trace package's untrusted-input bounds.
	Trace string `json:"trace,omitempty"`

	// decoded holds the upload's validated decode, populated at admission by
	// validateTrace so the pipeline does not parse the document twice. It is
	// dropped (with Trace) when the job reaches a terminal state.
	decoded *trace.Trace
}

// normalize applies defaults and validates the request, returning a
// client-attributable error (served as 400) when it is malformed.
func (r *Request) normalize() error {
	if r.Lang == "" {
		r.Lang = "conceptual"
	}
	if err := core.CheckLanguage(r.Lang); err != nil {
		return err
	}
	if r.Model == "" {
		r.Model = "bluegene"
	}
	if _, err := netmodel.Lookup(r.Model); err != nil {
		return err
	}

	if r.Trace != "" {
		if r.App != "" {
			return fmt.Errorf("request has both app %q and an uploaded trace; send exactly one", r.App)
		}
		// App-only knobs must not silently differentiate cache keys for
		// trace uploads.
		if r.N != 0 || r.Class != "" {
			return fmt.Errorf("n and class apply only to app requests, not uploaded traces")
		}
		return nil
	}

	if r.App == "" {
		return fmt.Errorf("request names no app and uploads no trace")
	}
	app := apps.ByName(r.App)
	if app == nil {
		return fmt.Errorf("unknown app %q (have %s)", r.App, strings.Join(apps.Names(), ", "))
	}
	if r.N == 0 {
		r.N = 16
	}
	if r.N < 1 || r.N > MaxRunnableRanks {
		return fmt.Errorf("n %d out of range [1, %d]", r.N, MaxRunnableRanks)
	}
	if !app.ValidRanks(r.N) {
		return fmt.Errorf("%s does not support %d ranks", r.App, r.N)
	}
	if r.Class == "" {
		r.Class = "W"
	}
	if _, err := apps.ParseClass(r.Class); err != nil {
		return fmt.Errorf("%v", err)
	}
	return nil
}

// validateTrace decodes an uploaded trace under the codec's untrusted-input
// bounds and trace rules and caps its world size at MaxRunnableRanks, so a
// malformed document, one that breaks a rule (named in the error) and a
// parser-safe-but-unrunnable one are refused at admission (served as 400)
// instead of failing — or OOMing — inside a worker. The
// decode is kept on the request for the pipeline to reuse.
func (r *Request) validateTrace() error {
	tr, err := trace.Decode(strings.NewReader(r.Trace))
	if err != nil {
		return fmt.Errorf("uploaded trace: %w", err)
	}
	if tr.N > MaxRunnableRanks {
		return fmt.Errorf("uploaded trace declares %d ranks; this daemon runs at most %d", tr.N, MaxRunnableRanks)
	}
	r.decoded = tr
	return nil
}

// release drops the upload payload and its decode once the job no longer
// needs them, so a retained terminal job does not pin the raw trace bytes.
func (r *Request) release() {
	r.Trace = ""
	r.decoded = nil
}

// Key returns the request's content address: a hex sha256 over the canonical
// normalized form. Identical requests — including a byte-identical uploaded
// trace — map to the same key, so the cache serves them without recompute;
// any field that changes the generated artifact is part of the preimage. The
// version line changes whenever the same request yields a different artifact,
// so a disk tier written by an older daemon misses instead of serving it.
func (r *Request) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "benchd/v2\napp=%s\nn=%d\nclass=%s\nmodel=%s\nlang=%s\nverify=%t\n",
		r.App, r.N, r.Class, r.Model, r.Lang, r.Verify)
	if r.Trace == "" {
		fmt.Fprintf(h, "trace=-\n")
	} else {
		th := sha256.Sum256([]byte(r.Trace))
		fmt.Fprintf(h, "trace=%s\n", hex.EncodeToString(th[:]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Result is the served artifact for one request: the generated benchmark
// source together with the predicted per-rank virtual timing and the
// mpiP-style profile of the generated benchmark's simulated execution. It
// contains no wall-clock fields: a Result is a pure function of its Request,
// which is what makes content-addressed caching sound.
type Result struct {
	// Key is the request's content address.
	Key string `json:"key"`
	// App echoes the requested app ("" for trace uploads).
	App string `json:"app,omitempty"`
	// N is the world size of the generated benchmark.
	N int `json:"n"`
	// Lang is the target language of Source.
	Lang string `json:"lang"`
	// Source is the generated benchmark program.
	Source string `json:"source"`
	// PerRankUS is each rank's predicted final virtual clock (microseconds)
	// from executing the generated benchmark on the requested model.
	PerRankUS []float64 `json:"per_rank_us"`
	// ElapsedUS is the predicted virtual makespan.
	ElapsedUS float64 `json:"elapsed_us"`
	// Profile is the mpiP-style per-operation profile of the generated
	// benchmark's execution.
	Profile string `json:"profile"`
	// CritPath is the causal critical-path and wait-state profile of the
	// predicting run (nil on results cached before the profiler existed);
	// served on its own at GET /v1/jobs/{id}/profile.
	CritPath *critpath.Profile `json:"critpath,omitempty"`
	// Verify is the model checker's verification report when the request
	// asked for one (POST /v1/verify, or Verify:true): the deadlock
	// verdict over the MP-net, the wildcard-resolution cross-validation,
	// and — on a counterexample — its replay confirmation.
	Verify *mpnet.Report `json:"verify,omitempty"`
	// TraceEvents and TraceNodes summarize the (compressed) input trace.
	TraceEvents int `json:"trace_events"`
	TraceNodes  int `json:"trace_nodes"`
}
