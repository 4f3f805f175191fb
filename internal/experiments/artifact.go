package experiments

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The artifact codec writes and reads the JSON artifact envelope
// {"version", "reports"} without reflection. The writer emits byte for byte
// what encoding/json's Encoder with SetIndent("", "  ") writes for the
// envelope, under the struct tags of Report, ShardInfo, ReportRow, Cell and
// stats.State; the reader accepts only that schema, and on everything it
// accepts agrees with json.Unmarshal into the same types. Both are pinned
// against encoding/json by the package's tests, so a field added to one of
// those types must be added here too.

// artifactEncoder renders one artifact into b. Objects and arrays open on
// the current line and put each member on a line of its own, indented two
// spaces per level; empty ones stay "{}" and "[]", nil ones are "null".
type artifactEncoder struct {
	b    []byte
	keys []string // the sorted keys of the maps being written
	err  error    // the first non-finite float met; the output is then discarded
}

// encoders recycles artifactEncoders with their buffers: an artifact is
// rendered whole before its one Write, and io.Writer must not retain it.
var encoders = sync.Pool{New: func() any { return new(artifactEncoder) }}

// WriteArtifact writes reports as an indented, versioned JSON artifact
// {"version": 1, "reports": [...]}, rendered into one buffer and written
// with one Write. The bytes are those of encoding/json's Encoder with
// SetIndent("", "  ") under the types' struct tags: map keys sorted,
// omitempty fields left out when empty, nil slices, maps and reports as
// null, and strings HTML-escaped. A NaN or infinite value fails with
// nothing written.
func WriteArtifact(w io.Writer, reports []*Report) error {
	e := encoders.Get().(*artifactEncoder)
	defer func() {
		e.b, e.err = e.b[:0], nil
		encoders.Put(e)
	}()
	e.b = append(e.b, '{')
	e.member(1, true, "version")
	e.int(ReportVersion)
	e.member(1, false, "reports")
	encodeSlice(e, 1, reports, e.report)
	e.b = append(e.b, "\n}\n"...)
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.b)
	return err
}

// line starts a new line indented to depth, at most 8: a cell's samples.
func (e *artifactEncoder) line(depth int) {
	const indent = "\n                "
	e.b = append(e.b, indent[:1+2*depth]...)
}

// member starts one member of an object whose members sit at depth: the
// separating comma unless it is the first, then the quoted key and ": ".
func (e *artifactEncoder) member(depth int, first bool, key string) {
	if !first {
		e.b = append(e.b, ',')
	}
	e.line(depth)
	e.str(key)
	e.b = append(e.b, ": "...)
}

func (e *artifactEncoder) report(r *Report, depth int) {
	if r == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '{')
	e.member(depth+1, true, "version")
	e.int(r.Version)
	e.member(depth+1, false, "experiment")
	e.str(r.Experiment)
	if len(r.Meta) > 0 {
		e.member(depth+1, false, "meta")
		encodeMap(e, depth+1, r.Meta, e.strAt)
	}
	if r.Shard != nil {
		e.member(depth+1, false, "shard")
		e.b = append(e.b, '{')
		e.member(depth+2, true, "index")
		e.int(r.Shard.Index)
		e.member(depth+2, false, "count")
		e.int(r.Shard.Count)
		e.line(depth + 1)
		e.b = append(e.b, '}')
	}
	e.member(depth+1, false, "rows")
	encodeSlice(e, depth+1, r.Rows, e.row)
	e.line(depth)
	e.b = append(e.b, '}')
}

func (e *artifactEncoder) row(r ReportRow, depth int) {
	e.b = append(e.b, '{')
	e.member(depth+1, true, "key")
	e.str(r.Key)
	if len(r.Labels) > 0 {
		e.member(depth+1, false, "labels")
		encodeMap(e, depth+1, r.Labels, e.strAt)
	}
	e.member(depth+1, false, "cells")
	encodeMap(e, depth+1, r.Cells, e.cell)
	if len(r.Counts) > 0 {
		e.member(depth+1, false, "counts")
		encodeMap(e, depth+1, r.Counts, e.intAt)
	}
	e.line(depth)
	e.b = append(e.b, '}')
}

func (e *artifactEncoder) cell(c Cell, depth int) {
	e.b = append(e.b, '{')
	e.member(depth+1, true, "n")
	e.int(c.N)
	e.member(depth+1, false, "mean")
	e.float(c.Mean)
	e.member(depth+1, false, "m2")
	e.float(c.M2)
	e.member(depth+1, false, "min")
	e.float(c.Min)
	e.member(depth+1, false, "max")
	e.float(c.Max)
	if len(c.Sets) > 0 {
		e.member(depth+1, false, "sets")
		encodeSlice(e, depth+1, c.Sets, e.intAt)
	}
	if len(c.Samples) > 0 {
		e.member(depth+1, false, "samples")
		encodeSlice(e, depth+1, c.Samples, e.floatAt)
	}
	e.line(depth)
	e.b = append(e.b, '}')
}

// encodeSlice writes s as an array whose value sits at depth.
func encodeSlice[V any](e *artifactEncoder, depth int, s []V, value func(V, int)) {
	switch {
	case s == nil:
		e.b = append(e.b, "null"...)
		return
	case len(s) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
	for i, v := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.line(depth + 1)
		value(v, depth+1)
	}
	e.line(depth)
	e.b = append(e.b, ']')
}

// encodeMap writes m as an object whose value sits at depth, members in
// byte-wise key order as encoding/json sorts them.
func encodeMap[V any](e *artifactEncoder, depth int, m map[string]V, value func(V, int)) {
	switch {
	case m == nil:
		e.b = append(e.b, "null"...)
		return
	case len(m) == 0:
		e.b = append(e.b, "{}"...)
		return
	}
	// The sorted keys stack up on e.keys while the values are written, so a
	// nested map reuses the same backing array.
	start := len(e.keys)
	e.keys = slices.AppendSeq(e.keys, maps.Keys(m))
	keys := e.keys[start:]
	slices.Sort(keys)
	e.b = append(e.b, '{')
	for i, k := range keys {
		e.member(depth+1, i == 0, k)
		value(m[k], depth+1)
	}
	e.line(depth)
	e.b = append(e.b, '}')
	clear(keys)
	e.keys = e.keys[:start]
}

func (e *artifactEncoder) int(v int)                { e.b = strconv.AppendInt(e.b, int64(v), 10) }
func (e *artifactEncoder) intAt(v int, _ int)       { e.int(v) }
func (e *artifactEncoder) strAt(s string, _ int)    { e.str(s) }
func (e *artifactEncoder) floatAt(f float64, _ int) { e.float(f) }

// float writes f as encoding/json does: the shortest representation that
// reads back to the same bits, in exponent form below 1e-6 and from 1e21 on
// (with a one-digit negative exponent unpadded). NaN and ±Inf have no JSON
// form and fail the artifact.
func (e *artifactEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("experiments: report artifact cannot hold %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str writes s quoted as encoding/json does with HTML escaping on: '"' and
// '\\' backslash-escaped, control bytes as \b \f \n \r \t or \u00XX, '<',
// '>' and '&' as \u00XX, U+2028 and U+2029 as \u202X, and each byte of
// invalid UTF-8 as \ufffd.
func (e *artifactEncoder) str(s string) {
	const hex = "0123456789abcdef"
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '"', '\\':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

// artifactReader parses one artifact. The first error sticks: every read
// after it returns a zero value and every loop ends, so the parsing code
// checks for failure once, at the end.
type artifactReader struct {
	data []byte
	off  int
	err  error
}

// ReadArtifact reads an artifact written by WriteArtifact, validating the
// schema version of the envelope and of every report. It reads strictly:
// exactly the JSON schema WriteArtifact writes, with field names matched
// exactly and each at most once, no unknown field or repeated map key, no
// invalid UTF-8 or lone surrogate escape in a string, and nothing but
// whitespace after the envelope. Whatever it accepts, json.Unmarshal reads
// to the same reports.
func ReadArtifact(r io.Reader) ([]*Report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: reading report artifact: %w", err)
	}
	version, reports, err := parseArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("experiments: decoding report artifact: %w", err)
	}
	if version != ReportVersion {
		return nil, fmt.Errorf("experiments: report artifact version %d, want %d", version, ReportVersion)
	}
	for _, rep := range reports {
		if rep == nil {
			return nil, fmt.Errorf("experiments: report artifact contains a null report")
		}
		if rep.Version != ReportVersion {
			return nil, fmt.Errorf("experiments: report version %d, want %d", rep.Version, ReportVersion)
		}
	}
	return reports, nil
}

// parseArtifact parses data as one artifact envelope, returning its version
// and reports.
func parseArtifact(data []byte) (int, []*Report, error) {
	r := &artifactReader{data: data}
	var version int
	var reports []*Report
	r.fields(func(key string) bool {
		switch key {
		case "version":
			version = r.int()
		case "reports":
			reports = readSlice(r, r.report)
		default:
			return false
		}
		return true
	})
	r.space()
	if r.err == nil && r.off < len(r.data) {
		r.fail("data after the artifact")
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	return version, reports, nil
}

func (r *artifactReader) report() *Report {
	if r.null() {
		return nil
	}
	rep := &Report{}
	r.fields(func(key string) bool {
		switch key {
		case "version":
			rep.Version = r.int()
		case "experiment":
			rep.Experiment = r.str()
		case "meta":
			rep.Meta = readMap(r, r.str)
		case "shard":
			rep.Shard = r.shard()
		case "rows":
			rep.Rows = readSlice(r, r.row)
		default:
			return false
		}
		return true
	})
	return rep
}

func (r *artifactReader) shard() *ShardInfo {
	if r.null() {
		return nil
	}
	s := &ShardInfo{}
	r.fields(func(key string) bool {
		switch key {
		case "index":
			s.Index = r.int()
		case "count":
			s.Count = r.int()
		default:
			return false
		}
		return true
	})
	return s
}

func (r *artifactReader) row() ReportRow {
	var row ReportRow
	r.fields(func(key string) bool {
		switch key {
		case "key":
			row.Key = r.str()
		case "labels":
			row.Labels = readMap(r, r.str)
		case "cells":
			row.Cells = readMap(r, r.cell)
		case "counts":
			row.Counts = readMap(r, r.int)
		default:
			return false
		}
		return true
	})
	return row
}

func (r *artifactReader) cell() Cell {
	var c Cell
	r.fields(func(key string) bool {
		switch key {
		case "n":
			c.N = r.int()
		case "mean":
			c.Mean = r.float()
		case "m2":
			c.M2 = r.float()
		case "min":
			c.Min = r.float()
		case "max":
			c.Max = r.float()
		case "sets":
			c.Sets = readSlice(r, r.int)
		case "samples":
			c.Samples = readSlice(r, r.float)
		default:
			return false
		}
		return true
	})
	return c
}

// readSlice reads a JSON array of values, or null as a nil slice; an empty
// array is an empty, non-nil slice, as json.Unmarshal makes it.
func readSlice[V any](r *artifactReader, value func() V) []V {
	if r.null() {
		return nil
	}
	s := []V{}
	r.expect('[')
	if r.closes(']') {
		return s
	}
	for r.err == nil {
		s = append(s, value())
		if !r.next(']') {
			break
		}
	}
	return s
}

// readMap reads a JSON object of values keyed by distinct strings, or null
// as a nil map; an empty object is an empty, non-nil map.
func readMap[V any](r *artifactReader, value func() V) map[string]V {
	if r.null() {
		return nil
	}
	m := map[string]V{}
	r.object(func(key string) {
		if _, ok := m[key]; ok {
			r.fail("repeated key %q", key)
			return
		}
		m[key] = value()
	})
	return m
}

// fields reads a JSON object of a struct's fields, calling field with the
// reader at each member's value; field reads the value, or reports false
// for a key that names no field. Each field may appear at most once.
func (r *artifactReader) fields(field func(key string) bool) {
	seen := make([]string, 0, 8)
	r.object(func(key string) {
		switch {
		case slices.Contains(seen, key):
			r.fail("repeated field %q", key)
		case !field(key):
			r.fail("unknown field %q", key)
		default:
			seen = append(seen, key)
		}
	})
}

// object reads one JSON object, calling member with the reader at each
// member's value; member must consume the value.
func (r *artifactReader) object(member func(key string)) {
	r.expect('{')
	if r.closes('}') {
		return
	}
	for r.err == nil {
		key := r.str()
		r.expect(':')
		if r.err != nil {
			return
		}
		member(key)
		if !r.next('}') {
			return
		}
	}
}

// fail records the first error, with the offset it was met at, and stops
// the parse.
func (r *artifactReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
	r.off = len(r.data)
}

// space skips JSON whitespace.
func (r *artifactReader) space() {
	d, i := r.data, r.off
	for i < len(d) && (d[i] == ' ' || d[i] == '\n' || d[i] == '\t' || d[i] == '\r') {
		i++
	}
	r.off = i
}

// expect consumes c after whitespace.
func (r *artifactReader) expect(c byte) {
	r.space()
	if r.off < len(r.data) && r.data[r.off] == c {
		r.off++
		return
	}
	r.unexpected(fmt.Sprintf("%q", c))
}

func (r *artifactReader) unexpected(want string) {
	if r.off >= len(r.data) {
		r.fail("unexpected end of the artifact, want %s", want)
		return
	}
	r.fail("unexpected %q, want %s", r.data[r.off], want)
}

// closes consumes the closing byte of an empty array or object.
func (r *artifactReader) closes(c byte) bool {
	r.space()
	if r.off < len(r.data) && r.data[r.off] == c {
		r.off++
		return true
	}
	return false
}

// next consumes the comma before another element, reporting true, or the
// closing byte, reporting false.
func (r *artifactReader) next(closing byte) bool {
	r.space()
	if r.off < len(r.data) {
		switch r.data[r.off] {
		case ',':
			r.off++
			return true
		case closing:
			r.off++
			return false
		}
	}
	r.unexpected(fmt.Sprintf("',' or %q", closing))
	return false
}

// null consumes a null literal, if one comes next.
func (r *artifactReader) null() bool {
	r.space()
	if len(r.data)-r.off >= 4 && string(r.data[r.off:r.off+4]) == "null" {
		r.off += 4
		return true
	}
	return false
}

// number consumes one number literal of the JSON grammar and returns it.
func (r *artifactReader) number() []byte {
	r.space()
	d, start := r.data, r.off
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	ok := true
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(d) && d[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		ok = digits()
	}
	r.off = i
	if !ok {
		r.unexpected("a digit")
		return nil
	}
	return d[start:i]
}

// int reads a number that is an integer in int's range.
func (r *artifactReader) int() int {
	start := r.off
	lit := r.number()
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		r.off = start
		r.fail("%s is not an integer in range", lit)
		return 0
	}
	return int(v)
}

// float reads a number within float64's range.
func (r *artifactReader) float() float64 {
	start := r.off
	lit := r.number()
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.off = start
		r.fail("%s is out of float64 range", lit)
		return 0
	}
	return v
}

// str reads a string. It rejects raw control bytes, invalid UTF-8 and a
// \u escape of a lone UTF-16 surrogate, where json.Unmarshal would
// substitute U+FFFD, so whatever it accepts decodes to the same string
// there.
func (r *artifactReader) str() string {
	r.expect('"')
	d := r.data
	var out []byte // the string up to start, once an escape has been decoded
	for i, start := r.off, r.off; r.err == nil; {
		switch {
		case i >= len(d):
			r.off = i
			r.unexpected(`'"'`)
		case d[i] == '"':
			s := d[start:i]
			if out != nil {
				s = append(out, s...)
			}
			if !utf8.Valid(s) {
				r.fail("invalid UTF-8 in a string")
				return ""
			}
			r.off = i + 1
			return string(s)
		case d[i] < 0x20:
			r.off = i
			r.fail("control byte %#02x in a string", d[i])
		case d[i] != '\\':
			i++
		default:
			c, n := unescape(d[i:])
			if n == 0 {
				r.off = i
				r.fail("bad escape in a string")
				return ""
			}
			out = utf8.AppendRune(append(out, d[start:i]...), c)
			i += n
			start = i
		}
	}
	return ""
}

// unescape decodes the escape sequence that opens b, returning the rune it
// stands for and its length, or length 0 for a bad escape or a lone
// surrogate.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		c := hex4(b[2:])
		if c >= 0 && !utf16.IsSurrogate(c) {
			return c, 6
		}
		if len(b) >= 12 && b[6] == '\\' && b[7] == 'u' {
			if c = utf16.DecodeRune(c, hex4(b[8:])); c != utf8.RuneError {
				return c, 12
			}
		}
	}
	return 0, 0
}

// hex4 decodes the four hex digits that open b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}
