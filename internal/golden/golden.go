// Package golden is the one mechanism behind the repository's golden files:
// the -update flag, the digests they hold and the load / compare / record
// step for the two shapes they take, a JSON map of keys (Map) and a whole
// text file (Text). A golden says "changed", never "wrong": after a
// deliberate change, `go test -run <name> <package> -update -v` rewrites the
// file and prints one "key.field: old → new" row per value that moved, the
// table a change log quotes. Only tests import this package.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files of the tests run from this checkout, printing every value that moved")

// rows receives -update's old → new rows.
var rows io.Writer = os.Stdout

// Numbering numbers values by the order of their first appearance, from 0.
type Numbering[K comparable] map[K]int

// Of returns k's number, giving it the next one if k is new.
func (n Numbering[K]) Of(k K) int {
	i, ok := n[k]
	if !ok {
		i = len(n)
		n[k] = i
	}
	return i
}

var siteField = regexp.MustCompile(`site=\d+`)

// Renumber returns an encoded trace with every site= value replaced by the
// order of its first appearance. A call site hashes program counters and
// source paths, which move with every recompile or checkout, while which
// events share a site does not.
func Renumber(encoded []byte) []byte {
	order := Numbering[string]{}
	return siteField.ReplaceAllFunc(encoded, func(m []byte) []byte {
		return strconv.AppendInt([]byte("site="), int64(order.Of(string(m))), 10)
	})
}

// TraceDigest is the sha256 of an encoded trace, sites renumbered.
func TraceDigest(encoded []byte) string { return digest(Renumber(encoded)) }

// TextDigest is the sha256 of a text.
func TextDigest(text string) string { return digest([]byte(text)) }

// ClockDigest is the sha256 of the clocks' float64 bit patterns, so two clock
// vectors digest alike only if they are bit-identical.
func ClockDigest(us []float64) string {
	buf := make([]byte, 8*len(us))
	for i, v := range us {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return digest(buf)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Text compares got with the file at path, failing t at the first line they
// differ in; under -update it writes got there instead.
func Text(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if d := Diff(got, want); d != "" {
		t.Errorf("%s: %s (run with -update after a deliberate change)", path, d)
	}
}

// Diff names the first line in which two texts differ, or is empty when
// they are equal.
func Diff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
		i++
	}
	at := func(lines [][]byte) string {
		if i == len(lines) {
			return "the end"
		}
		return strconv.Quote(string(lines[i]))
	}
	return fmt.Sprintf("line %d is %s, want %s", i+1, at(g), at(w))
}

// Read decodes the golden JSON file at path into v, for a test that holds a
// value to another test's golden without recording into it.
func Read(t testing.TB, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create it)", path, err)
	}
}

// A Map is a golden JSON file holding an object of keys, each a value or an
// object of fields, as json.MarshalIndent writes a Go map of them. Checks may
// come from parallel subtests. When the test that loaded the file ends, a
// golden key no check named fails it. Under -update the checks record
// instead, and the file is rewritten from what they recorded: a key no check
// named is dropped, and a key's fields no check named are kept, in the order
// the file holds them.
type Map struct {
	path string
	mu   sync.Mutex
	want map[string]entry // the file as loaded
	got  map[string]entry // what the checks recorded
}

// entry is one key's value: its fields in order or, when the value is not an
// object, one field with an empty name. Values are compact JSON.
type entry []field

type field struct {
	name  string
	value json.RawMessage
}

func (e entry) object() bool { return len(e) != 1 || e[0].name != "" }

// lookup returns the value of field name, nil if e has none.
func (e entry) lookup(name string) json.RawMessage {
	if i := slices.IndexFunc(e, func(f field) bool { return f.name == name }); i >= 0 {
		return e[i].value
	}
	return nil
}

// MarshalJSON writes the fields in their order, which a Go map would sort.
func (e entry) MarshalJSON() ([]byte, error) {
	if !e.object() {
		return e[0].value, nil
	}
	b := []byte{'{'}
	for i, f := range e {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(strconv.AppendQuote(b, f.name), ':')
		b = append(b, f.value...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the fields in the order the file holds them.
func (e *entry) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		*e = entry{{"", compact(data)}}
		return nil
	}
	*e = entry{}
	for dec.More() {
		name, err := dec.Token()
		if err != nil {
			return err
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			return err
		}
		*e = append(*e, field{name.(string), compact(value)})
	}
	return nil
}

// compact returns a copy of a JSON value without insignificant space.
func compact(data []byte) json.RawMessage {
	var b bytes.Buffer
	_ = json.Compact(&b, data) // the decoder that handed data over has validated it
	return b.Bytes()
}

// LoadMap reads the golden map at path for t, the test whose checks it
// serves; under -update a missing file reads as empty.
func LoadMap(t testing.TB, path string) *Map {
	t.Helper()
	m := &Map{path: path, want: map[string]entry{}, got: map[string]entry{}}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &m.want)
	}
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%s: %v (run with -update to create it)", path, err)
	}
	t.Cleanup(func() { m.finish(t) })
	return m
}

// Check compares v, JSON-encoded, with key's value, field by field when it
// is an object; a field missing on either side fails t.
func (m *Map) Check(t testing.TB, key string, v any) {
	t.Helper()
	var got entry
	encode(t, key, v, &got)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got[key] = got
	m.compare(t, key, m.want[key], got)
}

// CheckField compares v, JSON-encoded, with one field of key's value; the
// key's other fields are other checks' to compare.
func (m *Map) CheckField(t testing.TB, key, name string, v any) {
	t.Helper()
	var value json.RawMessage
	encode(t, key, v, &value)
	m.mu.Lock()
	defer m.mu.Unlock()
	got, ok := m.got[key]
	if !ok {
		got = slices.Clone(m.want[key])
	}
	i := slices.IndexFunc(got, func(f field) bool { return f.name == name })
	if i < 0 {
		i, got = len(got), append(got, field{name: name})
	}
	got[i].value, m.got[key] = value, got
	var want entry
	if w := m.want[key].lookup(name); w != nil {
		want = entry{{name, w}}
	}
	m.compare(t, key, want, entry{{name, value}})
}

// encode stores v's compact JSON encoding in dst.
func encode(t testing.TB, key string, v, dst any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(data, dst)
	}
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
}

// compare fails t on a key the golden lacks and on every field in which got
// differs from want; under -update it has nothing to compare.
func (m *Map) compare(t testing.TB, key string, want, got entry) {
	t.Helper()
	if *update {
		return
	}
	if _, ok := m.want[key]; !ok {
		t.Errorf("%s: not in %s (run with -update to add it)", key, m.path)
		return
	}
	for _, row := range changes(key, want, got) {
		t.Error(row)
	}
}

// finish fails t on a golden key no check named or, under -update, rewrites
// the file and prints a row for every value that moved. A failed run
// rewrites nothing.
func (m *Map) finish(t testing.TB) {
	var keys []string
	for key := range m.want {
		if _, ok := m.got[key]; !ok && !*update {
			t.Errorf("%s: in %s, but no check named it", key, m.path)
		}
		keys = append(keys, key)
	}
	if !*update || t.Failed() {
		return
	}
	for key := range m.got {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range slices.Compact(keys) {
		for _, row := range changes(key, m.want[key], m.got[key]) {
			fmt.Fprintln(rows, row)
		}
	}
	data, err := json.MarshalIndent(m.got, "", "  ")
	if err == nil {
		err = os.WriteFile(m.path, append(data, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// changes lists the fields in which key's value moved from old to now, one
// "key.field: old → new" row each, "(none)" standing for a missing value.
func changes(key string, old, now entry) []string {
	var rows []string
	row := func(name string, from, to json.RawMessage) {
		rows = append(rows, fmt.Sprintf("%s: %s → %s", label(key, name), show(from), show(to)))
	}
	for _, f := range old {
		if v := now.lookup(f.name); !bytes.Equal(v, f.value) {
			row(f.name, f.value, v)
		}
	}
	for _, f := range now {
		if old.lookup(f.name) == nil {
			row(f.name, nil, f.value)
		}
	}
	return rows
}

// label names a value in failures and rows: key.field, or key alone.
func label(key, name string) string {
	if name == "" {
		return key
	}
	return key + "." + name
}

// show renders a value for a failure or a row: a string without its quotes,
// anything else as compact JSON.
func show(value json.RawMessage) string {
	var s string
	switch {
	case value == nil:
		return "(none)"
	case value[0] == '"' && json.Unmarshal(value, &s) == nil:
		return s
	}
	return string(value)
}
