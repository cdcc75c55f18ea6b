package golden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// recorder is the testing.TB a Map reports to in these tests: it collects
// failures and cleanups instead of failing the test that runs it.
type recorder struct {
	testing.TB
	failures []string
	cleanups []func()
}

func (r *recorder) Helper()           {}
func (r *recorder) Cleanup(f func())  { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Failed() bool      { return len(r.failures) > 0 }
func (r *recorder) Error(args ...any) { r.failures = append(r.failures, fmt.Sprint(args...)) }
func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// digests is a value whose fields are not in sorted order, with one omitted
// when empty, as the engine golden's entries are.
type digests struct {
	Trace  string   `json:"trace"`
	Clocks string   `json:"clocks"`
	Logs   []string `json:"logs"`
	Extra  string   `json:"extra,omitempty"`
}

// sample returns a golden map holding both shapes of value, objects of
// fields and a plain string, with key's value replaced by v unless v is nil.
func sample(key string, v any) map[string]any {
	m := map[string]any{
		"bt-16":   digests{"t1", "c1", []string{"a", "b <&>"}, ""},
		"lu-64":   digests{"t2", "c2", nil, "x"},
		"split-4": "d3",
	}
	if v != nil {
		m[key] = v
	}
	return m
}

// writeSample writes sample("", nil) as json.MarshalIndent writes it, with a
// newline, and returns its path and bytes.
func writeSample(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.json")
	data, err := json.MarshalIndent(sample("", nil), "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path, append(data, '\n')
}

// run runs checks against the golden at path, under -update if asked, and
// returns the failures, sorted, and the rows printed.
func run(t *testing.T, path string, updating bool, checks func(*recorder, *Map)) (failures []string, printed string) {
	t.Helper()
	defer func(u bool, w io.Writer) { *update, rows = u, w }(*update, rows)
	var out bytes.Buffer
	*update, rows = updating, &out
	r := &recorder{TB: t}
	checks(r, LoadMap(r, path))
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	slices.Sort(r.failures)
	return r.failures, out.String()
}

// checkAll checks every key of values.
func checkAll(values map[string]any) func(*recorder, *Map) {
	return func(r *recorder, m *Map) {
		for key, v := range values {
			m.Check(r, key, v)
		}
	}
}

func TestMapNamesTheKeyAndFieldOfAChangedValue(t *testing.T) {
	path, _ := writeSample(t)
	for _, tc := range []struct {
		key  string
		v    any
		want []string
	}{
		{"bt-16", nil, nil},
		{"bt-16", digests{"t1", "c9", []string{"a", "b <&>"}, ""}, []string{"bt-16.clocks: c1 → c9"}},
		{"split-4", "d4", []string{"split-4: d3 → d4"}},
		{"lu-64", digests{"t2", "c2", nil, ""}, []string{"lu-64.extra: x → (none)"}},
	} {
		if failures, _ := run(t, path, false, checkAll(sample(tc.key, tc.v))); !slices.Equal(failures, tc.want) {
			t.Errorf("%s = %v: failures %q, want %q", tc.key, tc.v, failures, tc.want)
		}
	}
}

func TestMapFailsOnAMissingOrAnExtraKey(t *testing.T) {
	path, _ := writeSample(t)
	values := sample("is-8", "d5")
	delete(values, "lu-64")
	failures, _ := run(t, path, false, checkAll(values))
	want := []string{"is-8: not in " + path + " (run with -update to add it)", "lu-64: in " + path + ", but no check named it"}
	if !slices.Equal(failures, want) {
		t.Errorf("failures %q, want %q", failures, want)
	}
}

func TestMapUpdateOfUnchangedValuesRewritesTheFileByteForByte(t *testing.T) {
	path, before := writeSample(t)
	failures, printed := run(t, path, true, checkAll(sample("", nil)))
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("update of unchanged values rewrote\n%s\nas\n%s (%v)", before, after, err)
	}
	if len(failures) != 0 || printed != "" {
		t.Errorf("update of unchanged values: failures %q, rows %q", failures, printed)
	}
}

// TestMapUpdatePrintsRowsForChangedValuesOnly also checks one field of a key
// under -update: the key's other fields stay as the file holds them.
func TestMapUpdatePrintsRowsForChangedValuesOnly(t *testing.T) {
	path, _ := writeSample(t)
	values := sample("bt-16", digests{"t1", "c9", []string{"a"}, "y"})
	values["split-4"] = "d4"
	delete(values, "lu-64")
	_, printed := run(t, path, true, func(r *recorder, m *Map) {
		checkAll(values)(r, m)
		m.CheckField(r, "lu-64", "clocks", "c0")
	})
	want := []string{
		`bt-16.clocks: c1 → c9`,
		`bt-16.logs: ["a","b \u003c\u0026\u003e"] → ["a"]`,
		`bt-16.extra: (none) → y`,
		`lu-64.clocks: c2 → c0`,
		`split-4: d3 → d4`,
	}
	if got := strings.Split(strings.TrimSuffix(printed, "\n"), "\n"); !slices.Equal(got, want) {
		t.Errorf("rows\n%s\nwant\n%s", printed, strings.Join(want, "\n"))
	}
	values["lu-64"] = digests{"t2", "c0", nil, "x"}
	if failures, _ := run(t, path, false, checkAll(values)); len(failures) != 0 {
		t.Errorf("the rewritten file fails what it was rewritten from: %q", failures)
	}
}
