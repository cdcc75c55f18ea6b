package mpnet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/mpi"
)

// The textual artifacts. ExportJSON is the primary machine-readable
// rendering of the net: places (per-rank sequence places are implicit in
// the transition indices; channel places are listed), transitions with
// their channel arcs, and the wildcard transition families with their
// enabled-source alternatives. ExportTLA renders the same net as a TLA+
// module in the trace-validation style: a fixed interpreter over the net
// encoded as module-local data, so the module size stays proportional to
// the net and the semantics live in one static block.

type jsonChan struct {
	Src  int `json:"src"`
	Dst  int `json:"dst"`
	Tag  int `json:"tag"`
	Comm int `json:"comm"`
}

type jsonAlt struct {
	Source   int     `json:"source"`
	Channels []int32 `json:"channels"`
}

type jsonTransition struct {
	Kind string `json:"kind"`
	Op   string `json:"op"`
	Site uint64 `json:"site"`
	// Produce is the channel a send puts a token on (absent when the
	// destination is outside the world).
	Produce *int32 `json:"produce,omitempty"`
	// Consume lists the channels a concrete receive may take its token
	// from (alternatives under MPI_ANY_TAG).
	Consume []int32 `json:"consume,omitempty"`
	// Alternatives is the wildcard transition family: one member per
	// enabled source.
	Alternatives []jsonAlt `json:"alternatives,omitempty"`
	Comm         int       `json:"comm"`
	Tag          int       `json:"tag,omitempty"`
	Size         int       `json:"size,omitempty"`
	ComputeUS    float64   `json:"compute_us,omitempty"`
}

type jsonNet struct {
	NProcs    int    `json:"nprocs"`
	Events    int    `json:"events"`
	Wildcards int    `json:"wildcards"`
	Note      string `json:"note"`
	// Channels are the channel places; transition arcs index into this
	// table. The initial marking is all channels empty and every rank's
	// control token on its sequence place 0.
	Channels []jsonChan         `json:"channels"`
	Procs    [][]jsonTransition `json:"procs"`
	Comms    map[string][]int   `json:"comms"`
}

// ExportJSON renders the net as the MP-net JSON artifact.
func ExportJSON(n *Net) ([]byte, error) {
	doc := jsonNet{
		NProcs:    n.N,
		Events:    n.Events,
		Wildcards: n.Wildcards,
		Note: "MP-net lowered from a compressed communication trace: rank r's transition i " +
			"moves r's control token from sequence place (r,i) to (r,i+1); sends produce on " +
			"channel places keyed (src,dst,tag,comm), receives consume, wildcard receives are " +
			"transition families with one alternative per enabled source, collectives are " +
			"joint transitions over the communicator.",
		Channels: make([]jsonChan, len(n.Chans)),
		Procs:    make([][]jsonTransition, n.N),
		Comms:    map[string][]int{},
	}
	for i, c := range n.Chans {
		doc.Channels[i] = jsonChan{Src: c.Src, Dst: c.Dst, Tag: c.Tag, Comm: c.CommID}
	}
	for id, group := range n.Trace.Comms {
		doc.Comms[fmt.Sprint(id)] = append([]int(nil), group...)
	}
	for rank := 0; rank < n.N; rank++ {
		ts := make([]jsonTransition, len(n.Procs[rank]))
		for i := range n.Procs[rank] {
			ev := &n.Procs[rank][i]
			t := jsonTransition{
				Kind: ev.Kind.String(), Op: ev.Op.String(), Site: ev.Site,
				Comm: ev.CommID, Tag: ev.Tag, Size: ev.Size, ComputeUS: ev.ComputeUS,
			}
			switch {
			case ev.Kind == EvSend && ev.Chan >= 0:
				ch := ev.Chan
				t.Produce = &ch
			case ev.Wild:
				for k, src := range ev.Sources {
					t.Alternatives = append(t.Alternatives, jsonAlt{Source: src, Channels: ev.SrcChans[k]})
				}
			case ev.Kind == EvRecv || ev.Kind == EvIrecv:
				t.Consume = ev.Cands
			}
			ts[i] = t
		}
		doc.Procs[rank] = ts
	}
	return json.MarshalIndent(doc, "", "  ")
}

// TLAMaxEvents bounds the TLA+ rendering: beyond this the module is not
// a useful model-checking input and the rendering refuses rather than
// emitting megabytes.
const TLAMaxEvents = 4096

// ExportTLA renders the net as a TLA+ module: the net is encoded as
// module-local sequences and a fixed interpreter defines Init/Next, so
// TLC explores exactly the executions the in-process checker does
// (modulo TLC exploring deterministic interleavings the checker's
// partial-order reduction collapses). Deadlock-freedom is TLC's standard
// deadlock check; the wildcard alternatives are the only source of
// nondeterminism beyond interleaving.
func ExportTLA(n *Net, name string) (string, error) {
	if n.Events > TLAMaxEvents {
		return "", fmt.Errorf("mpnet: trace expands to %d events, past the %d-event TLA+ rendering bound",
			n.Events, TLAMaxEvents)
	}
	if name == "" {
		name = "MPNet"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "---- MODULE %s ----\n", name)
	b.WriteString("EXTENDS Naturals, Sequences\n\n")
	fmt.Fprintf(&b, "N == %d\nNChans == %d\n\n", n.N, len(n.Chans))

	// The net as data. Kinds: "local", "send", "recv", "recv-any",
	// "irecv", "wait", "waitall", "coll". Channel indices are 1-based in
	// TLA+. A transition record carries the arcs the interpreter needs.
	b.WriteString("(* Per-rank transition tables, lowered from the compressed trace. *)\n")
	b.WriteString("Procs ==\n  <<\n")
	for rank := 0; rank < n.N; rank++ {
		b.WriteString("    <<")
		for i := range n.Procs[rank] {
			ev := &n.Procs[rank][i]
			if i > 0 {
				b.WriteString(", ")
			}
			writeTLAEvent(&b, n, ev)
		}
		b.WriteString(">>")
		if rank != n.N-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  >>\n\n")

	// Communicator membership (1-based ranks).
	b.WriteString("CommGroup ==\n")
	ids := make([]int, 0, len(n.Trace.Comms))
	for id := range n.Trace.Comms {
		ids = append(ids, id)
	}
	sort.Ints(ids) // map order is random; the artifact is a function of the trace
	first := true
	for _, id := range ids {
		prefix := "  "
		if !first {
			prefix = "  @@ "
		}
		first = false
		fmt.Fprintf(&b, "%s%d :> {", prefix, id)
		for i, m := range n.Trace.Comms[id] {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", m+1)
		}
		b.WriteString("}\n")
	}
	if first {
		b.WriteString("  [i \\in {} |-> {}]\n")
	}
	b.WriteString("\n")

	b.WriteString(tlaInterpreter)
	b.WriteString("====\n")
	return b.String(), nil
}

func writeTLAEvent(b *strings.Builder, n *Net, ev *Event) {
	kind := ev.Kind.String()
	if ev.Kind == EvSend && ev.Op == mpi.OpIsend {
		kind = "isend"
	}
	fmt.Fprintf(b, "[kind |-> %q", kind)
	switch {
	case ev.Kind == EvSend:
		if ev.Chan >= 0 {
			fmt.Fprintf(b, ", produce |-> %d", ev.Chan+1)
		} else {
			b.WriteString(", produce |-> 0")
		}
	case ev.Wild:
		b.WriteString(", alts |-> {")
		k := 0
		for i := range ev.SrcChans {
			for _, ch := range ev.SrcChans[i] {
				if k > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "%d", ch+1)
				k++
			}
		}
		b.WriteString("}")
	case ev.Kind == EvRecv || ev.Kind == EvIrecv:
		b.WriteString(", consume |-> {")
		for i, ch := range ev.Cands {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%d", ch+1)
		}
		b.WriteString("}")
	case ev.Kind == EvColl:
		fmt.Fprintf(b, ", comm |-> %d", ev.CommID)
	}
	b.WriteString("]")
}

// tlaInterpreter is the fixed semantic core: pc, channel counts and
// per-rank outstanding-request queues evolve exactly as in check.go.
const tlaInterpreter = `(* ---- fixed interpreter over the tables above ---- *)
VARIABLES pc, chan, out
vars == <<pc, chan, out>>

Ranks == 1..N
Done(r) == pc[r] > Len(Procs[r])
Ev(r) == Procs[r][pc[r]]

Init ==
  /\ pc = [r \in Ranks |-> 1]
  /\ chan = [c \in 1..NChans |-> 0]
  /\ out = [r \in Ranks |-> <<>>]

Advance(r) == pc' = [pc EXCEPT ![r] = @ + 1]

(* An earlier unmatched wildcard in the queue claims compatible tokens
   (MPI non-overtaking); here channel sets encode compatibility. *)
Claimed(r, c, i) ==
  \E j \in 1..(i-1) : /\ ~out[r][j].matched
                      /\ "alts" \in DOMAIN out[r][j].ev
                      /\ c \in out[r][j].ev.alts

Local(r) ==
  /\ ~Done(r) /\ Ev(r).kind \in {"local"}
  /\ Advance(r) /\ UNCHANGED <<chan, out>>

Send(r) ==
  /\ ~Done(r) /\ Ev(r).kind \in {"send", "isend"}
  /\ chan' = IF Ev(r).produce = 0 THEN chan
             ELSE [chan EXCEPT ![Ev(r).produce] = @ + 1]
  /\ out' = IF Ev(r).kind = "isend"
            THEN [out EXCEPT ![r] = Append(@, [ev |-> Ev(r), matched |-> TRUE])]
            ELSE out
  /\ Advance(r)

Recv(r) ==
  /\ ~Done(r) /\ Ev(r).kind = "recv"
  /\ \E c \in Ev(r).consume :
       /\ chan[c] > 0 /\ ~Claimed(r, c, Len(out[r]) + 1)
       /\ chan' = [chan EXCEPT ![c] = @ - 1]
  /\ Advance(r) /\ UNCHANGED out

RecvAny(r) ==
  /\ ~Done(r) /\ Ev(r).kind = "recv-any"
  /\ \E c \in Ev(r).alts :
       /\ chan[c] > 0 /\ ~Claimed(r, c, Len(out[r]) + 1)
       /\ chan' = [chan EXCEPT ![c] = @ - 1]
  /\ Advance(r) /\ UNCHANGED out

Irecv(r) ==
  /\ ~Done(r) /\ Ev(r).kind = "irecv"
  /\ out' = [out EXCEPT ![r] = Append(@, [ev |-> Ev(r), matched |-> FALSE])]
  /\ Advance(r) /\ UNCHANGED chan

Match(r) ==
  \E i \in 1..Len(out[r]) :
    /\ ~out[r][i].matched
    /\ \E c \in IF "alts" \in DOMAIN out[r][i].ev
                THEN out[r][i].ev.alts ELSE out[r][i].ev.consume :
         /\ chan[c] > 0 /\ ~Claimed(r, c, i)
         /\ chan' = [chan EXCEPT ![c] = @ - 1]
    /\ out' = [out EXCEPT ![r][i].matched = TRUE]
    /\ UNCHANGED pc

Wait(r) ==
  /\ ~Done(r) /\ Ev(r).kind = "wait"
  /\ IF Len(out[r]) = 0 THEN UNCHANGED out
     ELSE /\ out[r][1].matched
          /\ out' = [out EXCEPT ![r] = Tail(@)]
  /\ Advance(r) /\ UNCHANGED chan

Waitall(r) ==
  /\ ~Done(r) /\ Ev(r).kind = "waitall"
  /\ \A i \in 1..Len(out[r]) : out[r][i].matched
  /\ out' = [out EXCEPT ![r] = <<>>]
  /\ Advance(r) /\ UNCHANGED chan

Coll(r) ==
  /\ ~Done(r) /\ Ev(r).kind = "coll"
  /\ LET members == CommGroup[Ev(r).comm] IN
     /\ \A m \in members : /\ ~Done(m)
                           /\ Ev(m).kind = "coll"
                           /\ Ev(m).comm = Ev(r).comm
     /\ pc' = [m \in Ranks |-> IF m \in members THEN pc[m] + 1 ELSE pc[m]]
  /\ UNCHANGED <<chan, out>>

Next == \E r \in Ranks :
  Local(r) \/ Send(r) \/ Recv(r) \/ RecvAny(r) \/ Irecv(r)
  \/ Match(r) \/ Wait(r) \/ Waitall(r) \/ Coll(r)

Spec == Init /\ [][Next]_vars

(* TLC's deadlock check is the theorem: some rank unfinished, no step. *)
AllDone == \A r \in Ranks : Done(r)
`
