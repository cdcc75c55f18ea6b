package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/mpi"
)

// Rendezvous is a collective in progress on one communicator, in slots by
// communicator position: the leaf each member arrived at and the compute
// sample it replays there, so a sum over the slots ignores arrival order.
type Rendezvous struct {
	Comm      []int     // the communicator's world ranks
	Arrived   []*RSD    // by position; nil until the member arrives
	ComputeUS []float64 // by position
	first     int       // the lowest arrived position; len(Comm) while none has
	missing   int       // the lowest position not arrived
}

// MismatchError refuses a rendezvous on communicator Comm that would join
// different collective operations: Got arrives where Want stands.
type MismatchError struct {
	Comm      int
	Want, Got mpi.Op
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("trace: collective mismatch on comm %d: %v vs %v", e.Comm, e.Want, e.Got)
}

// StuckError reports ranks that can never reach their end: a potential
// deadlock in the input application (Section 4.4, Figure 5).
type StuckError struct {
	// Blocked describes each stuck rank's event, sorted, as "rank R blocked
	// on OP (peer P, tag T, comm C)" with P the world peer: absN, any or -.
	Blocked []string
}

func (e *StuckError) Error() string {
	return "trace: potential deadlock in input application: " + strings.Join(e.Blocked, "; ")
}

// Blocked is one stuck rank and the event it stands at. Peer is the world
// peer of a point-to-point operation, mpi.AnySource for a wildcard receive,
// and mpi.NoPeer for any other operation.
type Blocked struct {
	Op                    mpi.Op
	Rank, Peer, Tag, Comm int
}

// Stuck returns the StuckError describing blocked.
func Stuck(blocked []Blocked) *StuckError {
	lines := make([]string, len(blocked))
	for i, b := range blocked {
		peer := "abs" + strconv.Itoa(b.Peer)
		if b.Peer == mpi.AnySource {
			peer = "any"
		} else if b.Peer == mpi.NoPeer {
			peer = "-"
		}
		lines[i] = fmt.Sprintf("rank %d blocked on %v (peer %s, tag %d, comm %d)", b.Rank, b.Op, peer, b.Tag, b.Comm)
	}
	slices.Sort(lines)
	return &StuckError{Blocked: lines}
}

// Walk is the traversal Algorithms 1 and 2 share (Sections 4.3 and 4.4):
// cursors that meet at collectives. A unit is a cursor walked at the first of
// its ascending members: a class of ranks that walk the same events for
// Algorithm 1, one rank for Algorithm 2. step(u, c) moves unit u's cursor c
// until it stands at a collective, finishes or, for Algorithm 2, blocks. At a
// collective the unit fills the slot of every member; the arrival that fills
// the last one calls release (when not nil) and advances every unit of the
// communicator once, through its first member.
//
// The schedule sweeps the units in order. A unit that stops at an incomplete
// rendezvous hands over to the unit at its lowest missing position, a
// completed rendezvous to the unit of the communicator's first member. A
// hand-over to a unit handed to since the last progress ends the chase. A
// sweep without progress ends the walk, with a *StuckError naming every
// member of every unit short of its end, or nil. An arrival at another
// operation than the lowest arrived position's is a *MismatchError.
func (low *Lowered) Walk(units [][]int, step func(u int, c *Cursor), release func(*Rendezvous)) error {
	t := low.t
	cursors, unitOf := make([]*Cursor, len(units)), make([]int, t.N)
	for u, members := range units {
		cursors[u] = low.Cursor(members[0])
		for _, m := range members {
			unitOf[m] = u
		}
	}
	// progress counts cursor moves (read from Cursor.Index) and releases;
	// seen holds, per unit, its value at the last hand-over to the unit.
	progress, seen, rdv := 1, make([]int, len(units)), map[int]*Rendezvous{}
	// arrive fills the slots of unit u at cursor c, releases the rendezvous if
	// that completes it, and returns the unit to hand over to.
	arrive := func(u int, c *Cursor) (int, error) {
		rsd := c.Cur()
		r := rdv[rsd.CommID]
		if r == nil {
			comm := t.CommGroup(rsd.CommID)
			r = &Rendezvous{Comm: comm, Arrived: make([]*RSD, len(comm)), ComputeUS: make([]float64, len(comm)), first: len(comm)}
			rdv[rsd.CommID] = r
		}
		if r.first < len(r.Comm) && r.Arrived[r.first].Op != rsd.Op {
			return 0, &MismatchError{Comm: rsd.CommID, Want: r.Arrived[r.first].Op, Got: rsd.Op}
		}
		for _, m := range units[u] {
			pos, _ := t.CommRankOf(rsd.CommID, m)
			r.Arrived[pos], r.ComputeUS[pos] = rsd, c.ComputeUS()
			r.first = min(r.first, pos)
		}
		for r.missing < len(r.Comm) && r.Arrived[r.missing] != nil {
			r.missing++
		}
		if r.missing < len(r.Comm) {
			return unitOf[r.Comm[r.missing]], nil
		}
		if release != nil {
			release(r)
		}
		for _, m := range r.Comm {
			if v := unitOf[m]; units[v][0] == m {
				cursors[v].Advance()
			}
		}
		clear(r.Arrived)
		r.first, r.missing = len(r.Comm), 0
		progress++
		return unitOf[r.Comm[0]], nil
	}
	for swept := 0; swept != progress; {
		swept = progress
		for u := range units {
			for v := u; ; { // the chase
				c := cursors[v]
				at := c.Index()
				step(v, c)
				progress += c.Index() - at
				if rsd := c.Cur(); rsd == nil || !rsd.Op.IsCollective() {
					break
				}
				next, err := arrive(v, c)
				if err != nil {
					return err
				}
				if seen[next] == progress {
					break
				}
				seen[next], v = progress, next
			}
		}
	}
	var blocked []Blocked
	for u, c := range cursors {
		for _, m := range units[u] {
			if rsd, peer := c.Cur(), mpi.NoPeer; rsd != nil {
				if rsd.Op.IsPointToPoint() {
					peer = rsd.WorldPeerFor(m, t)
				}
				blocked = append(blocked, Blocked{Op: rsd.Op, Rank: m, Peer: peer, Tag: rsd.Tag, Comm: rsd.CommID})
			}
		}
	}
	if blocked == nil {
		return nil
	}
	return Stuck(blocked)
}
