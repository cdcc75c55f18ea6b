package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/taskset"
)

// formatVersion is the trace file format version.
const formatVersion = 1

// Decode bounds. benchd feeds user-supplied files straight into Decode, so
// every count the format declares is validated against a hard ceiling before
// any allocation proportional to it happens; a hostile header cannot make the
// decoder allocate or loop unboundedly. The ceilings are far above anything
// the pipeline produces (the largest in-repo traces are a few thousand
// nodes), so legitimate traces are unaffected.
const (
	// MaxDecodeRanks bounds nprocs.
	MaxDecodeRanks = 1 << 20
	// MaxDecodeComms bounds the declared communicator count.
	MaxDecodeComms = 1 << 16
	// MaxDecodeGroups bounds the declared behaviour-group count.
	MaxDecodeGroups = 1 << 16
	// MaxDecodeNodes bounds the total node (record) count across the whole
	// file, counting every declared loop body and top-level sequence.
	MaxDecodeNodes = 1 << 22
	// MaxDecodeLoopIters bounds a single loop's iteration count.
	MaxDecodeLoopIters = 1 << 30
	// MaxDecodeSize bounds a message/collective byte size.
	MaxDecodeSize = 1 << 40
	// MaxDecodeList bounds the entries in one counts/pvec/group vector.
	MaxDecodeList = 1 << 20
)

// Encode writes the trace in the line-oriented scalatrace-go text format.
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "scalatrace-go %d\n", formatVersion)
	fmt.Fprintf(bw, "nprocs %d\n", t.N)
	ids := make([]int, 0, len(t.Comms))
	for id := range t.Comms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(bw, "comms %d\n", len(ids))
	for _, id := range ids {
		fmt.Fprintf(bw, "comm %d %s\n", id, intsString(t.Comms[id]))
	}
	fmt.Fprintf(bw, "groups %d\n", len(t.Groups))
	for _, g := range t.Groups {
		fmt.Fprintf(bw, "group %s %d\n", g.Ranks, len(g.Seq))
		if err := encodeSeq(bw, g.Seq); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodeSeq(bw *bufio.Writer, seq []Node) error {
	for _, n := range seq {
		switch x := n.(type) {
		case *Loop:
			fmt.Fprintf(bw, "loop %d %d\n", x.Iters, len(x.Body))
			if err := encodeSeq(bw, x.Body); err != nil {
				return err
			}
		case *RSD:
			if err := encodeRSD(bw, x); err != nil {
				return err
			}
		default:
			return fmt.Errorf("trace: unknown node type %T", n)
		}
	}
	return nil
}

func encodeRSD(bw *bufio.Writer, r *RSD) error {
	fmt.Fprintf(bw, "rsd op=%s site=%d ranks=%s comm=%d csize=%d peer=%s tag=%d size=%d root=%d",
		r.Op, r.Site, r.Ranks, r.CommID, r.CommSize, r.Peer, r.Tag, r.Size, r.Root)
	if r.Wildcard {
		fmt.Fprint(bw, " wildcard=1")
	}
	if len(r.Counts) > 0 {
		fmt.Fprintf(bw, " counts=%s", intsString(r.Counts))
	}
	if len(r.PeerVec) > 0 {
		fmt.Fprintf(bw, " pvec=%s", intsString(r.PeerVec))
	}
	if r.NewCommID != 0 {
		fmt.Fprintf(bw, " newcomm=%d group=%s", r.NewCommID, intsString(r.Group))
	}
	h := r.ComputeStats()
	if !h.Empty() {
		text, err := h.MarshalText()
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, " compute=%q", text)
	}
	fmt.Fprintln(bw)
	return nil
}

func intsString(vs []int) string {
	if len(vs) == 0 {
		return "-"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func parseInts(s string) ([]int, error) {
	if s == "-" || s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > MaxDecodeList {
		return nil, fmt.Errorf("trace: int list has %d entries (max %d)", len(parts), MaxDecodeList)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("trace: bad int list %q: %w", s, err)
		}
		out[i] = v
	}
	return out, nil
}

type decoder struct {
	sc   *bufio.Scanner
	line int
	// nodeBudget is the remaining number of nodes the file may declare;
	// decremented as sequences are decoded so deeply nested or repeated
	// loop headers cannot multiply past MaxDecodeNodes.
	nodeBudget int
}

func (d *decoder) next() (string, error) {
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		return text, nil
	}
	if err := d.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("trace: line %d: %s", d.line, fmt.Sprintf(format, args...))
}

// Decode reads a trace in the scalatrace-go text format. Input is treated as
// untrusted: every declared count is validated against the MaxDecode bounds
// before the decoder allocates for it, and parse errors carry the offending
// line number.
func Decode(r io.Reader) (*Trace, error) {
	d := &decoder{sc: bufio.NewScanner(r), nodeBudget: MaxDecodeNodes}
	d.sc.Buffer(make([]byte, 0, 1<<16), 1<<24)

	header, err := d.next()
	if err != nil {
		return nil, fmt.Errorf("trace: empty input: %w", err)
	}
	var ver int
	if _, err := fmt.Sscanf(header, "scalatrace-go %d", &ver); err != nil || ver != formatVersion {
		return nil, d.errf("bad header %q", header)
	}

	t := &Trace{Comms: make(map[int][]int)}
	line, err := d.next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "nprocs %d", &t.N); err != nil {
		return nil, d.errf("bad nprocs line %q", line)
	}
	if t.N < 1 || t.N > MaxDecodeRanks {
		return nil, d.errf("nprocs %d out of range [1, %d]", t.N, MaxDecodeRanks)
	}

	line, err = d.next()
	if err != nil {
		return nil, err
	}
	var ncomms int
	if _, err := fmt.Sscanf(line, "comms %d", &ncomms); err != nil {
		return nil, d.errf("bad comms line %q", line)
	}
	if ncomms < 0 || ncomms > MaxDecodeComms {
		return nil, d.errf("comm count %d out of range [0, %d]", ncomms, MaxDecodeComms)
	}
	// seenIn[wr] is the 1-based ordinal of the last comm line listing world
	// rank wr: one array for all groups.
	var seenIn []int32
	for i := 0; i < ncomms; i++ {
		line, err = d.next()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "comm" {
			return nil, d.errf("bad comm line %q", line)
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, d.errf("bad comm id: %v", err)
		}
		group, err := parseInts(fields[2])
		if err != nil {
			return nil, d.errf("%v", err)
		}
		if _, dup := t.Comms[id]; dup {
			return nil, d.errf("duplicate comm id %d", id)
		}
		if len(group) > t.N {
			return nil, d.errf("comm %d has %d members but nprocs is %d", id, len(group), t.N)
		}
		if seenIn == nil {
			seenIn = make([]int32, t.N)
		}
		for _, wr := range group {
			if wr < 0 || wr >= t.N {
				return nil, d.errf("comm %d member %d outside world [0, %d)", id, wr, t.N)
			}
			// A repeated member has two communicator ranks: CommRankOf and
			// WorldRankOf would disagree about which one it is.
			if seenIn[wr] == int32(i+1) {
				return nil, d.errf("comm %d lists member %d twice", id, wr)
			}
			seenIn[wr] = int32(i + 1)
		}
		t.Comms[id] = group
	}

	line, err = d.next()
	if err != nil {
		return nil, err
	}
	var ngroups int
	if _, err := fmt.Sscanf(line, "groups %d", &ngroups); err != nil {
		return nil, d.errf("bad groups line %q", line)
	}
	if ngroups < 0 || ngroups > MaxDecodeGroups {
		return nil, d.errf("group count %d out of range [0, %d]", ngroups, MaxDecodeGroups)
	}
	for i := 0; i < ngroups; i++ {
		line, err = d.next()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "group" {
			return nil, d.errf("bad group line %q", line)
		}
		ranks, err := taskset.Parse(fields[1])
		if err != nil {
			return nil, d.errf("%v", err)
		}
		ntop, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, d.errf("bad group node count: %v", err)
		}
		seq, err := d.decodeSeq(ntop)
		if err != nil {
			return nil, err
		}
		t.Groups = append(t.Groups, Group{Ranks: ranks, Seq: seq})
	}
	return t, nil
}

func (d *decoder) decodeSeq(n int) ([]Node, error) {
	if n < 0 {
		return nil, d.errf("negative node count %d", n)
	}
	if n > d.nodeBudget {
		return nil, d.errf("declared node count %d exceeds remaining budget %d (file max %d)",
			n, d.nodeBudget, MaxDecodeNodes)
	}
	d.nodeBudget -= n
	// Cap the pre-allocation: the declared count is within budget but not yet
	// backed by actual input lines, so a lying header must not pre-size a
	// large slice.
	capHint := n
	if capHint > 4096 {
		capHint = 4096
	}
	seq := make([]Node, 0, capHint)
	for i := 0; i < n; i++ {
		line, err := d.next()
		if err != nil {
			return nil, d.errf("unexpected end of trace: %v", err)
		}
		switch {
		case strings.HasPrefix(line, "loop "):
			var iters, nbody int
			if _, err := fmt.Sscanf(line, "loop %d %d", &iters, &nbody); err != nil {
				return nil, d.errf("bad loop line %q", line)
			}
			if iters < 0 || iters > MaxDecodeLoopIters {
				return nil, d.errf("loop iteration count %d out of range [0, %d]", iters, MaxDecodeLoopIters)
			}
			body, err := d.decodeSeq(nbody)
			if err != nil {
				return nil, err
			}
			seq = append(seq, &Loop{Iters: iters, Body: body})
		case strings.HasPrefix(line, "rsd "):
			r, err := d.decodeRSD(line)
			if err != nil {
				return nil, err
			}
			seq = append(seq, r)
		default:
			return nil, d.errf("unexpected node line %q", line)
		}
	}
	return seq, nil
}

func (d *decoder) decodeRSD(line string) (*RSD, error) {
	r := &RSD{Root: -1}
	rest := strings.TrimPrefix(line, "rsd ")
	for len(rest) > 0 {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, d.errf("bad field in %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		var val string
		if strings.HasPrefix(rest, `"`) {
			unq, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, d.errf("bad quoted value: %v", err)
			}
			val, err = strconv.Unquote(unq)
			if err != nil {
				return nil, d.errf("bad quoted value: %v", err)
			}
			rest = rest[len(unq):]
		} else {
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				val, rest = rest, ""
			} else {
				val, rest = rest[:sp], rest[sp+1:]
			}
		}
		if err := d.setRSDField(r, key, val); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (d *decoder) setRSDField(r *RSD, key, val string) error {
	atoi := func() (int, error) { return strconv.Atoi(val) }
	var err error
	switch key {
	case "op":
		r.Op = mpi.OpFromString(val)
		if r.Op == mpi.OpNone && val != "None" {
			return d.errf("unknown op %q", val)
		}
	case "site":
		var u uint64
		u, err = strconv.ParseUint(val, 10, 64)
		r.Site = u
	case "ranks":
		r.Ranks, err = taskset.Parse(val)
	case "comm":
		r.CommID, err = atoi()
	case "csize":
		r.CommSize, err = atoi()
		if err == nil && (r.CommSize < 0 || r.CommSize > MaxDecodeRanks) {
			return d.errf("csize %d out of range [0, %d]", r.CommSize, MaxDecodeRanks)
		}
	case "peer":
		r.Peer, err = parseParam(val)
	case "tag":
		r.Tag, err = atoi()
	case "size":
		r.Size, err = atoi()
		if err == nil && (r.Size < 0 || r.Size > MaxDecodeSize) {
			return d.errf("size %d out of range [0, %d]", r.Size, int64(MaxDecodeSize))
		}
	case "root":
		r.Root, err = atoi()
	case "wildcard":
		r.Wildcard = val == "1"
	case "counts":
		r.Counts, err = parseInts(val)
	case "pvec":
		r.PeerVec, err = parseInts(val)
	case "newcomm":
		r.NewCommID, err = atoi()
	case "group":
		r.Group, err = parseInts(val)
	case "compute":
		h := stats.NewHistogram()
		if err = h.UnmarshalText([]byte(val)); err == nil {
			r.Compute = h
		}
	default:
		return d.errf("unknown rsd field %q", key)
	}
	if err != nil {
		return d.errf("bad %s value %q: %v", key, val, err)
	}
	return nil
}

func parseParam(s string) (Param, error) {
	switch {
	case s == "-":
		return NoParam, nil
	case s == "any":
		return AnyParam, nil
	case strings.HasPrefix(s, "abs"):
		v, err := strconv.Atoi(s[3:])
		return AbsParam(v), err
	case strings.HasPrefix(s, "rel"):
		v, err := strconv.Atoi(s[3:])
		return RelParam(v), err
	case strings.HasPrefix(s, "xor"):
		v, err := strconv.Atoi(s[3:])
		return XorParam(v), err
	case s == "vec":
		return VecParam, nil
	default:
		return Param{}, fmt.Errorf("unknown param %q", s)
	}
}
