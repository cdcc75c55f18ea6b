package mpi

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered subset of world ranks with its own
// dense rank numbering, as in MPI. The world communicator has ID 0 and
// contains every rank in order.
type Comm struct {
	world *World
	id    int
	group []int       // comm rank -> world rank
	index map[int]int // world rank -> comm rank (nil when identity)
	// identity is true when comm rank i is world rank i for every member
	// (always the case for the world communicator), letting rank
	// translation skip the index map entirely.
	identity bool
	// sync is the rendezvous the communicator's collective rounds meet at.
	sync *seqColl
}

// ID returns the communicator's unique identifier within its world.
func (c *Comm) ID() int { return c.id }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Group returns a copy of the comm-rank-to-world-rank mapping.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

// WorldRank translates a communicator rank to a world ("absolute") rank.
// It panics on out-of-range ranks, mirroring an MPI rank error.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("mpi: comm %d has no rank %d (size %d)", c.id, commRank, len(c.group)))
	}
	return c.group[commRank]
}

// CommRank translates a world rank into this communicator's numbering.
// The boolean reports membership.
func (c *Comm) CommRank(worldRank int) (int, bool) {
	if c.identity {
		if worldRank >= 0 && worldRank < len(c.group) {
			return worldRank, true
		}
		return 0, false
	}
	r, ok := c.index[worldRank]
	return r, ok
}

// Contains reports whether the world rank belongs to the communicator.
func (c *Comm) Contains(worldRank int) bool {
	_, ok := c.CommRank(worldRank)
	return ok
}

func newComm(w *World, id int, group []int) *Comm {
	c := &Comm{world: w, id: id, group: append([]int(nil), group...)}
	c.identity = true
	for i, wr := range c.group {
		if wr != i {
			c.identity = false
			break
		}
	}
	if !c.identity {
		c.index = make(map[int]int, len(c.group))
		for i, wr := range c.group {
			c.index[wr] = i
		}
	}
	c.sync = newSeqColl(w.sched, c.group)
	return c
}

// splitKey orders members of a split by (key, worldRank), per MPI_Comm_split.
type splitKey struct {
	color, key, worldRank int
}

// splitGroups partitions the contributions of a CommSplit round into new
// communicator groups keyed by color. Color < 0 (MPI_UNDEFINED) yields no
// membership.
func splitGroups(contribs []any) map[int][]int {
	var keys []splitKey
	for _, c := range contribs {
		keys = append(keys, c.(splitKey))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].color != keys[j].color {
			return keys[i].color < keys[j].color
		}
		if keys[i].key != keys[j].key {
			return keys[i].key < keys[j].key
		}
		return keys[i].worldRank < keys[j].worldRank
	})
	groups := make(map[int][]int)
	for _, k := range keys {
		if k.color < 0 {
			continue
		}
		groups[k.color] = append(groups[k.color], k.worldRank)
	}
	return groups
}
