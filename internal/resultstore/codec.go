package resultstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"

	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// The store has one canonical binary encoding, produced by walking a
// value field by field with reflection. It serves two purposes: the
// body of a report record (decodeValue reverses it) and the input of
// the configuration Digest. Because the walk visits every field, a
// field added to core.Report is persisted and a field added to
// core.System or core.Workload reaches the digest without any change
// here.
//
// The layout, in field order with no names or padding:
//
//   - bool: one byte, 0 or 1;
//   - every integer kind: its value as 8 bytes, little-endian;
//   - float64: its IEEE-754 bits as 8 bytes, little-endian, so NaN
//     payloads and -0 survive;
//   - string: its byte length as 8 bytes, then the bytes;
//   - array: its elements;
//   - slice: its length as 8 bytes, then its elements; a nil slice is
//     written with length nilLen, so nil and empty stay distinct;
//   - struct: its fields, exported or not.
//
// Any other kind (map, pointer, interface, ...) is a programming
// error: appendValue panics on it, and the tests check that System,
// Workload and Report contain none.

// nilLen is the length word of a nil slice.
const nilLen = math.MaxUint64

// appendValue appends the canonical encoding of v to dst.
func appendValue(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case reflect.String:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Len()))
		return append(dst, v.String()...)
	case reflect.Array:
		for i := range v.Len() {
			dst = appendValue(dst, v.Index(i))
		}
		return dst
	case reflect.Slice:
		if v.IsNil() {
			return binary.LittleEndian.AppendUint64(dst, nilLen)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Len()))
		for i := range v.Len() {
			dst = appendValue(dst, v.Index(i))
		}
		return dst
	case reflect.Struct:
		for i := range v.NumField() {
			dst = appendValue(dst, v.Field(i))
		}
		return dst
	default:
		panic(fmt.Sprintf("resultstore: %s has no canonical encoding", v.Type()))
	}
}

// decodeValue decodes one value of v's type from the front of src into
// v, which must be settable, and returns the remaining bytes. ok is
// false when src is too short or not a canonical encoding (a bool
// other than 0 or 1, an integer its kind cannot hold). A slice length
// is bounded by the bytes left, so a damaged body never allocates more
// than its own length implies.
func decodeValue(src []byte, v reflect.Value) (rest []byte, ok bool) {
	switch v.Kind() {
	case reflect.Bool:
		if len(src) < 1 || src[0] > 1 {
			return nil, false
		}
		v.SetBool(src[0] == 1)
		return src[1:], true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if len(src) < 8 {
			return nil, false
		}
		x := int64(binary.LittleEndian.Uint64(src))
		if v.OverflowInt(x) {
			return nil, false
		}
		v.SetInt(x)
		return src[8:], true
	case reflect.Float64:
		if len(src) < 8 {
			return nil, false
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(src)))
		return src[8:], true
	case reflect.String:
		if len(src) < 8 {
			return nil, false
		}
		n := binary.LittleEndian.Uint64(src)
		src = src[8:]
		if n > uint64(len(src)) {
			return nil, false
		}
		v.SetString(string(src[:n]))
		return src[n:], true
	case reflect.Array:
		for i := range v.Len() {
			if src, ok = decodeValue(src, v.Index(i)); !ok {
				return nil, false
			}
		}
		return src, true
	case reflect.Slice:
		if len(src) < 8 {
			return nil, false
		}
		n := binary.LittleEndian.Uint64(src)
		src = src[8:]
		if n == nilLen {
			v.SetZero()
			return src, true
		}
		if n > uint64(len(src)/max(minEncodedLen(v.Type().Elem()), 1)) {
			return nil, false
		}
		// Grow on the (nil) destination allocates only the backing
		// array, where MakeSlice would also box a slice header; only
		// an empty slice needs MakeSlice to stay non-nil.
		if n == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			return src, true
		}
		v.Grow(int(n))
		v.SetLen(int(n))
		for i := range int(n) {
			if src, ok = decodeValue(src, v.Index(i)); !ok {
				return nil, false
			}
		}
		return src, true
	case reflect.Struct:
		for i := range v.NumField() {
			if src, ok = decodeValue(src, v.Field(i)); !ok {
				return nil, false
			}
		}
		return src, true
	default:
		return nil, false
	}
}

// minEncodedLen returns the fewest bytes any value of type t encodes to.
func minEncodedLen(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool:
		return 1
	case reflect.Array:
		return t.Len() * minEncodedLen(t.Elem())
	case reflect.Struct:
		n := 0
		for i := range t.NumField() {
			n += minEncodedLen(t.Field(i).Type)
		}
		return n
	default:
		return 8
	}
}

// bodyFields are the indices of the core.Report fields a report record
// stores: all but the System and Workload echo, which Load restates
// from the requested configuration.
var bodyFields = func() []int {
	t := reflect.TypeFor[core.Report]()
	var idx []int
	for i := range t.NumField() {
		switch t.Field(i).Type {
		case reflect.TypeFor[core.System](), reflect.TypeFor[core.Workload]():
		default:
			idx = append(idx, i)
		}
	}
	return idx
}()

// appendReport appends the canonical encoding of rep's body fields.
func appendReport(dst []byte, rep *core.Report) []byte {
	v := reflect.ValueOf(rep).Elem()
	for _, i := range bodyFields {
		dst = appendValue(dst, v.Field(i))
	}
	return dst
}

// decodeReport decodes a report body written by appendReport into rep.
// It reports false unless src is exactly one canonical body, trailing
// bytes included.
func decodeReport(src []byte, rep *core.Report) bool {
	v := reflect.ValueOf(rep).Elem()
	for _, i := range bodyFields {
		var ok bool
		if src, ok = decodeValue(src, v.Field(i)); !ok {
			return false
		}
	}
	return len(src) == 0
}

// appendTable appends the body of a table record: the distinct link
// classes of the wiring, in first-use order, as one canonical
// []hw.LinkClass palette, then one uvarint (from, to, palette index)
// triple per edge in canonical (From, To) order — the order
// hw.TableNetwork digests in.
func appendTable(dst []byte, edges map[hw.Edge]hw.LinkClass) []byte {
	keys := slices.SortedFunc(maps.Keys(edges), compareEdges)
	palette := []hw.LinkClass{}
	class := make([]int, len(keys))
	for i, e := range keys {
		c := edges[e]
		j := slices.Index(palette, c)
		if j < 0 {
			j = len(palette)
			palette = append(palette, c)
		}
		class[i] = j
	}
	dst = appendValue(dst, reflect.ValueOf(palette))
	for i, e := range keys {
		dst = binary.AppendUvarint(dst, uint64(e.From))
		dst = binary.AppendUvarint(dst, uint64(e.To))
		dst = binary.AppendUvarint(dst, uint64(class[i]))
	}
	return dst
}

// decodeTable decodes a table body written by appendTable. It reports
// false on a short or damaged body, a palette index out of range, or
// edges out of strictly increasing (From, To) order.
func decodeTable(src []byte) (map[hw.Edge]hw.LinkClass, bool) {
	var palette []hw.LinkClass
	src, ok := decodeValue(src, reflect.ValueOf(&palette).Elem())
	if !ok {
		return nil, false
	}
	// Each triple takes at least three bytes.
	edges := make(map[hw.Edge]hw.LinkClass, len(src)/3)
	var prev hw.Edge
	for len(src) > 0 {
		var t [3]uint64
		for k := range t {
			x, n := binary.Uvarint(src)
			if n <= 0 {
				return nil, false
			}
			t[k], src = x, src[n:]
		}
		if t[0] > math.MaxInt || t[1] > math.MaxInt || t[2] >= uint64(len(palette)) {
			return nil, false
		}
		e := hw.Edge{From: int(t[0]), To: int(t[1])}
		if len(edges) > 0 && compareEdges(prev, e) >= 0 {
			return nil, false
		}
		edges[e], prev = palette[t[2]], e
	}
	return edges, true
}

// compareEdges orders edges by (From, To).
func compareEdges(a, b hw.Edge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}
