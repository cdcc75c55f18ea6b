package taskset

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseExpanding is Parse as it was before it read only the text String
// prints: every run expanded, then packed by Of. It is the reference Parse
// is held to, on every input.
func parseExpanding(text string) (Set, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "{}" {
		return Set{}, nil
	}
	var ranks []int
	for _, part := range strings.Split(text, ",") {
		nums := strings.Split(part, ":")
		switch len(nums) {
		case 1:
			v, err := strconv.Atoi(nums[0])
			if err != nil {
				return Set{}, fmt.Errorf("taskset: bad rank %q: %w", part, err)
			}
			ranks = append(ranks, v)
		case 2, 3:
			lo, err := strconv.Atoi(nums[0])
			if err != nil {
				return Set{}, fmt.Errorf("taskset: bad range %q: %w", part, err)
			}
			hi, err := strconv.Atoi(nums[1])
			if err != nil {
				return Set{}, fmt.Errorf("taskset: bad range %q: %w", part, err)
			}
			stride := 1
			if len(nums) == 3 {
				stride, err = strconv.Atoi(nums[2])
				if err != nil || stride < 1 {
					return Set{}, fmt.Errorf("taskset: bad stride in %q", part)
				}
			}
			if hi < lo {
				return Set{}, fmt.Errorf("taskset: descending range %q", part)
			}
			span := hi - lo
			if span < 0 || span/stride >= maxParsed-len(ranks) {
				return Set{}, fmt.Errorf("taskset: %q holds more than %d ranks", text, maxParsed)
			}
			for i := 0; i <= span/stride; i++ {
				ranks = append(ranks, lo+i*stride)
			}
		default:
			return Set{}, fmt.Errorf("taskset: malformed run %q", part)
		}
	}
	return Of(ranks...), nil
}

// checkParse fails t unless Parse gives text parseExpanding's exact set when
// text, blanks trimmed, is what String prints of that set (or is blank), and
// an error otherwise.
func checkParse(t *testing.T, text string) {
	t.Helper()
	got, err := Parse(text)
	want, wantErr := parseExpanding(text)
	trimmed := strings.TrimSpace(text)
	switch canonical := wantErr == nil && (trimmed == "" || want.String() == trimmed); {
	case canonical && (err != nil || !got.Identical(want)):
		t.Fatalf("Parse(%q) = %v, %v; String prints the expanding parser's %v as this text", text, got.runs, err, want.runs)
	case !canonical && err == nil:
		t.Fatalf("Parse(%q) = %v; want an error: String prints the set as %q (expanding parser: %v)", text, got.runs, want, wantErr)
	}
}

// TestParseMatchesExpanding holds Parse to the parser that expanded every
// run: the String form of random sets, which it must read as that parser
// does, and random texts over the runs' alphabet, most of which it must
// refuse.
func TestParseMatchesExpanding(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	randomSet := func() Set {
		var ranks []int
		for range rng.Intn(6) {
			start, stride := rng.Intn(200)-20, 1+rng.Intn(4)
			for i := range rng.Intn(8) {
				ranks = append(ranks, start+i*stride)
			}
		}
		return Of(ranks...)
	}
	for range 5000 {
		s := randomSet()
		if got, err := Parse(s.String()); err != nil || !got.Identical(s) {
			t.Fatalf("Parse(%q), the String form of %v, = %v, %v", s.String(), s.runs, got.runs, err)
		}
		checkParse(t, s.String())
	}
	numbers := []string{"0", "1", "2", "3", "4", "5", "6", "8", "9", "12", "-1", "-3", "+2", "007", "-0", "00",
		"1023", "1024", strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt), strconv.Itoa(math.MaxInt - 1), "", "x"}
	for range 20000 {
		var b strings.Builder
		for i := range 1 + rng.Intn(5) {
			if i > 0 {
				b.WriteString([]string{",", ",", ",", ":", " ", ",,"}[rng.Intn(6)])
			}
			b.WriteString(numbers[rng.Intn(len(numbers))])
			for range rng.Intn(4) {
				b.WriteString(":" + numbers[rng.Intn(len(numbers))])
			}
		}
		checkParse(t, b.String())
	}
	for _, text := range []string{"0,1", "0:2,3", "0,2,4", "0:4:2,6", "0,1,2", "5,3", "1,1", "0:1,3", "0,2:6:2",
		"0,2,3", "0:3,5:9:2", "0:2:2,5", "0:8:2,9", " 0:3 ", "0:9223372036854775807", "0:9223372036854775807:2",
		"-9223372036854775808:9223372036854775807:9223372036854775807", "9223372036854775806:9223372036854775807:1",
		"1:-9223372036854775808:9223372036854775807", "0:1048575", "0:1048575,1048577", "0,2:1048576"} {
		checkParse(t, text)
	}
}

// TestParseNamesTheCanonicalSpelling refuses text String does not print,
// naming the text and what String prints.
func TestParseNamesTheCanonicalSpelling(t *testing.T) {
	for text, want := range map[string]string{
		"0,2":         `taskset: "0,2" is not canonical (String prints "0:2:2")`,
		"0:1048575:1": `taskset: "0:1048575:1" is not canonical (String prints "0:1048575")`,
		"0,1:1048575": `taskset: "0,1:1048575" is not canonical (String prints "0:1048575")`,
		"3:3":         `taskset: "3:3" is not canonical (String prints "3")`,
		"0:5:2":       `taskset: "0:5:2" is not canonical (String prints "0:4:2")`,
		"+1,007":      `taskset: "+1,007" is not canonical (String prints "1:7:6")`,
		"4,2:3":       `taskset: "4,2:3" is not canonical (String prints "2:4")`,
	} {
		if _, err := Parse(text); fmt.Sprint(err) != want {
			t.Errorf("Parse(%q): %v, want %s", text, err, want)
		}
	}
}

// TestParseCanonicalRunIsNotExpanded is the cost row of Parse: the String
// form of a set of 2^20 ranks allocates one object, its runs.
func TestParseCanonicalRunIsNotExpanded(t *testing.T) {
	for _, text := range []string{"0:1048575", "0:2097150:2", "3,5:1048579"} {
		allocs := testing.AllocsPerRun(10, func() {
			if s, err := Parse(text); err != nil || s.Size() != 1<<20 {
				t.Fatalf("Parse(%q) = %d ranks, %v", text, s.Size(), err)
			}
		})
		if allocs != 1 {
			t.Errorf("Parse(%q) allocated %v objects", text, allocs)
		}
	}
}
