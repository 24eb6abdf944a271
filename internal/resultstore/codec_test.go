package resultstore

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"mcudist/internal/core"
)

// leaves returns the index path of every leaf (non-struct, non-array)
// value under v, unexported fields included.
func leaves(v reflect.Value, path []int, out [][]int) [][]int {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			out = leaves(v.Field(i), append(slices.Clip(path), i), out)
		}
	case reflect.Array:
		for i := range v.Len() {
			out = leaves(v.Index(i), append(slices.Clip(path), i), out)
		}
	default:
		out = append(out, path)
	}
	return out
}

// at follows an index path from v and returns the leaf as a settable
// value, even behind unexported fields.
func at(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if v.Kind() == reflect.Array {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// nudge changes a leaf to a nearby, different value: a bool flips, an
// integer steps by one, a float64 flips its lowest bit and a string
// grows.
func nudge(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("no nudge for a %s leaf", v.Type())
	}
}

// Changing any single leaf of System or Workload — every field,
// unexported array elements and the lowest bit of every float
// included — changes the digest. A field added to either type is
// covered the moment it exists.
func TestDigestCoversEveryLeaf(t *testing.T) {
	type config struct {
		Sys core.System
		Wl  core.Workload
	}
	sys, wl := testPoint(8)
	base := Digest(sys, wl)
	paths := leaves(reflect.ValueOf(config{sys, wl}), nil, nil)
	if len(paths) < 60 {
		t.Fatalf("found only %d leaves", len(paths))
	}
	for _, p := range paths {
		c := config{sys, wl}
		leaf := at(reflect.ValueOf(&c).Elem(), p)
		nudge(t, leaf)
		if Digest(c.Sys, c.Wl) == base {
			t.Errorf("changing leaf %v (%s) left the digest unchanged", p, leaf.Type())
		}
	}
}

// The digest of the paper's 8-chip TinyLlama decode point is pinned:
// any change to the canonical encoding, the prefix or the hash shows
// here and needs a DigestVersion bump.
func TestDigestPinned(t *testing.T) {
	sys, wl := testPoint(8)
	const want = "v4-6232e7d0313350413a8ac4dbac30e67780db5a854db846979abe354e1d0b32d3"
	if got := Digest(sys, wl); got != want {
		t.Errorf("Digest(DefaultSystem(8), TinyLlama autoregressive) = %s, want %s", got, want)
	}
}

// checkKinds fails the test for every type under typ whose kind the
// canonical encoding does not cover; slices are allowed only where
// allowSlice is set. Maps, pointers and interfaces are never allowed:
// they have no value encoding.
func checkKinds(t *testing.T, typ reflect.Type, path string, allowSlice bool) {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Float64, reflect.String:
	case reflect.Array:
		checkKinds(t, typ.Elem(), path+"[]", allowSlice)
	case reflect.Slice:
		if !allowSlice {
			t.Errorf("%s is a slice (%s)", path, typ)
			return
		}
		checkKinds(t, typ.Elem(), path+"[]", allowSlice)
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			checkKinds(t, f.Type, path+"."+f.Name, allowSlice)
		}
	default:
		t.Errorf("%s has kind %s, which the canonical encoding does not cover", path, typ.Kind())
	}
}

// System and Workload hold only kinds the digest walker encodes and no
// slices (they are comparable map keys of the evalpool cache); Report
// may add slices, which the body encodes length-prefixed.
func TestCanonicalKinds(t *testing.T) {
	checkKinds(t, reflect.TypeFor[core.System](), "System", false)
	checkKinds(t, reflect.TypeFor[core.Workload](), "Workload", false)
	checkKinds(t, reflect.TypeFor[core.Report](), "Report", true)
}

// filler gives every leaf it fills a distinct value. A top-level
// slice gets two elements; nested slices cycle through nil, empty and
// two elements.
type filler struct{ n, nested, depth int }

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		f.n++
		v.SetBool(f.n%2 == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.n++
		v.SetInt(int64(f.n) * -1_000_003)
	case reflect.Float64:
		f.n++
		switch f.n {
		case 3:
			v.SetFloat(math.NaN())
		case 4:
			v.SetFloat(math.Copysign(0, -1))
		default:
			v.SetFloat(float64(f.n) + 1.0/3)
		}
	case reflect.String:
		f.n++
		v.SetString(strconv.Itoa(f.n))
	case reflect.Array:
		for i := range v.Len() {
			f.fill(v.Index(i))
		}
	case reflect.Slice:
		n := 2
		if f.depth > 0 {
			f.nested++
			switch f.nested % 3 {
			case 1:
				return // nil
			case 2:
				n = 0
			}
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		f.depth++
		for i := range n {
			f.fill(v.Index(i))
		}
		f.depth--
	case reflect.Struct:
		for i := range v.NumField() {
			f.fill(v.Field(i))
		}
	}
}

// identical reports whether a and b hold the same bits: floats compare
// by their IEEE bits (so NaN equals itself and -0 differs from 0) and
// a nil slice differs from an empty one.
func identical(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if !identical(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !identical(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	default:
		return a.Int() == b.Int()
	}
}

// appendReopenLoad appends rep under the configuration, reopens the
// store and loads it back.
func appendReopenLoad(t *testing.T, sys core.System, wl core.Workload, rep *core.Report) *core.Report {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Load(sys, wl)
	if !ok {
		t.Fatal("persisted report missed after reopen")
	}
	return got
}

// Every leaf of a Report survives Append, reopen and Load bit for bit:
// a synthetic report with a distinct value in every leaf (NaN, -0, nil
// and empty slices among them), and a real 64-chip report.
// reflect.DeepEqual cannot tell NaN from itself or -0 from 0, so the
// synthetic report is compared bit by bit.
func TestCodecRoundTripEveryLeaf(t *testing.T) {
	sys, wl := testPoint(8)
	want := &core.Report{}
	var f filler
	for _, i := range bodyFields {
		f.fill(reflect.ValueOf(want).Elem().Field(i))
	}
	if f.nested < 6 {
		t.Fatalf("filled only %d nested slices", f.nested)
	}
	want.System, want.Workload = sys, wl
	got := appendReopenLoad(t, sys, wl, want)
	if !identical(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
		t.Errorf("synthetic report diverged:\n got %+v\nwant %+v", got, want)
	}

	sys64, wl64 := scaledPoint()
	rep := mustRun(t, sys64, wl64)
	if got := appendReopenLoad(t, sys64, wl64, rep); !reflect.DeepEqual(got, rep) {
		t.Errorf("64-chip report diverged:\n got %+v\nwant %+v", got, rep)
	}
}

// BenchmarkDigest measures the content address of one configuration.
func BenchmarkDigest(b *testing.B) {
	sys, wl := testPoint(8)
	b.ReportAllocs()
	for b.Loop() {
		Digest(sys, wl)
	}
}
