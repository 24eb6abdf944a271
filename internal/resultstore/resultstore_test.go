package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

func testPoint(chips int) (core.System, core.Workload) {
	return core.DefaultSystem(chips),
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
}

// scaledPoint is a 64-chip decode point: the scaled TinyLlama, whose 64
// heads split across 64 chips.
func scaledPoint() (core.System, core.Workload) {
	return core.DefaultSystem(64),
		core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Autoregressive}
}

func mustRun(t *testing.T, sys core.System, wl core.Workload) *core.Report {
	t.Helper()
	rep, err := core.Run(sys, wl)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func logPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("results-v%d.log", DigestVersion))
}

// A persisted report must round-trip exactly: every field the
// simulator computed — floats included — comes back bit-identical, so
// warm runs print byte-identical output.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(4)
	rep := mustRun(t, sys, wl)
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(sys, wl)
	if !ok {
		t.Fatal("persisted entry missed")
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round-trip diverged:\n got %+v\nwant %+v", got, rep)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if s.SizeBytes() <= 0 {
		t.Error("SizeBytes reported an empty log")
	}

	// A cold process: a fresh store on the same directory serves the
	// entry without any simulation.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := s2.Load(sys, wl)
	if !ok {
		t.Fatal("reopened store missed the persisted entry")
	}
	if !reflect.DeepEqual(got2, rep) {
		t.Error("reopened store returned a different report")
	}
	if s2.Skipped() != 0 {
		t.Errorf("clean log skipped %d records", s2.Skipped())
	}
}

// Distinct configurations must get distinct digests (chips, plan,
// workload, and mode all participate), equal configurations equal
// ones, and the digest string must carry its version.
func TestDigest(t *testing.T) {
	sys, wl := testPoint(4)
	if d, d2 := Digest(sys, wl), Digest(sys, wl); d != d2 {
		t.Errorf("digest not deterministic: %s vs %s", d, d2)
	}
	if !strings.HasPrefix(Digest(sys, wl), fmt.Sprintf("v%d-", DigestVersion)) {
		t.Errorf("digest %q does not carry its version", Digest(sys, wl))
	}
	sys8 := sys
	sys8.Chips = 8
	if Digest(sys, wl) == Digest(sys8, wl) {
		t.Error("chip count did not reach the digest")
	}
	wlP := wl
	wlP.Mode = model.Prompt
	if Digest(sys, wl) == Digest(sys, wlP) {
		t.Error("mode did not reach the digest")
	}
	planned := sys
	planned.Options.SyncPlan = planned.Options.SyncPlan.With(0, hw.TopoRing)
	if Digest(sys, wl) == Digest(planned, wl) {
		t.Error("the collective plan (an unexported binding array) did not reach the digest")
	}
}

// A truncated trailing record — a writer killed mid-append — must be
// skipped on open: earlier entries stay served, the torn one misses
// and is re-simulated, and nothing is fatal.
func TestTruncatedTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	if err := s.Append(sysA, wlA, mustRun(t, sysA, wlA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(dir), raw[:len(raw)-37], 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn log failed to open: %v", err)
	}
	if _, ok := s2.Load(sysA, wlA); !ok {
		t.Error("entry before the torn tail was lost")
	}
	if _, ok := s2.Load(sysB, wlB); ok {
		t.Error("torn entry was served")
	}
	if s2.Skipped() != 1 {
		t.Errorf("skipped %d records, want 1", s2.Skipped())
	}

	// The store stays appendable after the torn tail: the re-simulated
	// entry lands after the partial line and both reads still work on a
	// fresh open (the damaged line stays skipped, not resurrected).
	if err := s2.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Load(sysB, wlB); !ok {
		t.Error("re-appended entry after torn tail missed")
	}
}

// A corrupt record in the middle of the log — a flipped byte caught by
// the CRC — is skipped without affecting its neighbors.
func TestCorruptEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	if err := s.Append(sysA, wlA, mustRun(t, sysA, wlA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Swap one base64 character inside the first record's body for
	// another valid one, so the line still parses and the body still
	// decodes: corruption the CRC, not the parser, catches.
	idx := strings.Index(string(raw), `"report":"`)
	if idx < 0 {
		t.Fatal("no report body in log")
	}
	i := idx + len(`"report":"`) + 100
	if raw[i] == 'A' {
		raw[i] = 'B'
	} else {
		raw[i] = 'A'
	}
	if err := os.WriteFile(logPath(dir), raw, 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Load(sysA, wlA); ok {
		t.Error("corrupt entry was served")
	}
	if _, ok := s2.Load(sysB, wlB); !ok {
		t.Error("entry after the corrupt record was lost")
	}
	if s2.Skipped() != 1 {
		t.Errorf("skipped %d records, want 1", s2.Skipped())
	}
}

// Records written under another digest version are invalidated
// wholesale: they are skipped on open and never served.
func TestDigestVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(raw), fmt.Sprintf(`"v":%d`, DigestVersion), `"v":0`, 1)
	if doctored == string(raw) {
		t.Fatal("no version field found to doctor")
	}
	if err := os.WriteFile(logPath(dir), []byte(doctored), 0o666); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Load(sys, wl); ok {
		t.Error("entry from a foreign digest version was served")
	}
	if s2.Skipped() != 1 {
		t.Errorf("skipped %d records, want 1", s2.Skipped())
	}
}

// Reports on table-backed networks persist their per-edge wiring, so
// the log is self-contained: reopening re-registers the table (and a
// table record whose wiring does not reproduce its recorded digest is
// rejected). The 64-chip all-pairs table (4,032 edges) is the size
// every resilience perturbation of a 64-chip board persists.
func TestTableNetworkPersisted(t *testing.T) {
	allPairs, err := hw.NetworkEdges(hw.UniformNetwork(hw.MIPI()), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		edges map[hw.Edge]hw.LinkClass
	}{
		{"pair", map[hw.Edge]hw.LinkClass{{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI()}},
		{"64-chip-all-pairs", allPairs},
	} {
		t.Run(tc.name, func(t *testing.T) { testTablePersisted(t, tc.edges) })
	}
}

func testTablePersisted(t *testing.T, edges map[hw.Edge]hw.LinkClass) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	net, err := hw.TableNetwork(edges)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	sys.HW.Network = net
	sys.HW.Topology = hw.TopoRing
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	tableLine, _, _ := strings.Cut(string(raw), "\n")
	kind, digest, body, ok := parseLine([]byte(tableLine + "\n"))
	if !ok || kind != kindTable || string(digest) != net.TableDigest {
		t.Fatal("table wiring was not persisted ahead of the entry")
	}
	persisted := tableEdgesInOrder(t, body)
	if len(persisted) != len(edges) {
		t.Fatalf("persisted %d edges, want %d", len(persisted), len(edges))
	}
	for i, e := range persisted {
		if c, ok := edges[e.Edge]; !ok || c != e.class {
			t.Fatalf("persisted edge %d->%d class %+v is not in the table", e.From, e.To, e.class)
		}
		if i == 0 {
			continue
		}
		if a := persisted[i-1]; a.From > e.From || (a.From == e.From && a.To >= e.To) {
			t.Fatalf("persisted edges out of (From, To) order at %d: %d>%d then %d>%d",
				i, a.From, a.To, e.From, e.To)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Skipped() != 0 {
		t.Errorf("reopen skipped %d records", s2.Skipped())
	}
	if !s2.tables[net.TableDigest] {
		t.Error("reopen did not re-register the table under its digest")
	}
	if got, ok := s2.Load(sys, wl); !ok || got.Cycles <= 0 {
		t.Error("table-backed entry missed after reopen")
	}
	if _, ok := hw.TableEdges(net.TableDigest); !ok {
		t.Error("table not registered after reopen")
	}

	// A table record with a forged digest must be skipped, even when its
	// CRC is recomputed to match: Open re-derives the digest from the
	// wiring.
	forged := "deadbeef" + net.TableDigest[8:]
	doctored := string(appendLine(nil, kindTable, forged, body)) + strings.TrimPrefix(string(raw), tableLine+"\n")
	dir2 := t.TempDir()
	if err := os.WriteFile(logPath(dir2), []byte(doctored), 0o666); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Skipped() == 0 {
		t.Error("forged table digest was accepted")
	}
}

// Appending the same configuration twice writes one record.
func TestAppendDeduplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	rep := mustRun(t, sys, wl)
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	size := s.SizeBytes()
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() != size || s.Len() != 1 {
		t.Errorf("duplicate append grew the log (%d -> %d bytes, %d entries)",
			size, s.SizeBytes(), s.Len())
	}
}

// Two stores on one directory — two processes, in miniature — append
// concurrently without corrupting the log: a fresh open afterwards
// indexes every entry and skips nothing.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	var wg sync.WaitGroup
	for i, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func(s *Store, off int) {
			defer wg.Done()
			for n := 1; n <= 4; n++ {
				sys := core.DefaultSystem(n)
				sys.Options.CommTileBytes = 4096 + off // disjoint configs per writer
				rep, err := core.Run(sys, wl)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Append(sys, wl, rep); err != nil {
					t.Error(err)
				}
			}
		}(s, i)
	}
	wg.Wait()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 8 {
		t.Errorf("concurrent appends left %d entries, want 8", s3.Len())
	}
	if s3.Skipped() != 0 {
		t.Errorf("concurrent appends corrupted %d records", s3.Skipped())
	}
}

// The log is plain JSON lines: every record parses standalone (the
// property the corruption handling and external tooling rely on).
func TestLogIsJSONLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(2)
	if err := s.Append(sys, wl, mustRun(t, sys, wl)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %d is not standalone JSON: %v", i, err)
		}
	}
}

// CompactTo must keep exactly the newest valid record per digest and
// drop duplicate and damaged lines: a store written by two concurrent
// handles (each blind to the other's appends) plus a torn final write
// compacts to one clean record per configuration, with the newest
// duplicate winning.
func TestCompactTo(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir) // scanned before s1 writes: will duplicate
	if err != nil {
		t.Fatal(err)
	}
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	repA := mustRun(t, sysA, wlA)
	repB := mustRun(t, sysB, wlB)
	if err := s1.Append(sysA, wlA, repA); err != nil {
		t.Fatal(err)
	}
	// s2 re-appends the same digest with a doctored payload, so the
	// log holds two different records for it; the newest must win.
	newer := *repA
	newer.Cycles += 1000
	if err := s2.Append(sysA, wlA, &newer); err != nil {
		t.Fatal(err)
	}
	if err := s1.Append(sysB, wlB, repB); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2.Close()

	// A writer dies mid-record: the log gains a torn tail.
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"report","v":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Skipped() != 1 {
		t.Fatalf("source skipped %d records, want 1 (the torn tail)", src.Skipped())
	}

	if _, err := src.CompactTo(dir); err == nil {
		t.Fatal("compacting a store onto its own directory was accepted")
	}

	dstDir := t.TempDir()
	dst, err := src.CompactTo(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 {
		t.Errorf("compacted store holds %d entries, want 2", dst.Len())
	}
	if dst.SizeBytes() >= src.SizeBytes() {
		t.Errorf("compacted log (%d bytes) not smaller than source (%d bytes)",
			dst.SizeBytes(), src.SizeBytes())
	}
	gotA, ok := dst.Load(sysA, wlA)
	if !ok {
		t.Fatal("compacted store missed the duplicated entry")
	}
	if gotA.Cycles != newer.Cycles {
		t.Errorf("compacted store kept cycles %g, want the newest duplicate's %g",
			gotA.Cycles, newer.Cycles)
	}
	if gotB, ok := dst.Load(sysB, wlB); !ok || !reflect.DeepEqual(gotB, repB) {
		t.Error("compacted store lost or altered the second entry")
	}
	dst.Close()

	// The compacted log reopens clean: no skipped records, same index.
	re, err := Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Skipped() != 0 {
		t.Errorf("compacted log skipped %d records on reopen, want 0", re.Skipped())
	}
	if re.Len() != 2 {
		t.Errorf("reopened compacted store holds %d entries, want 2", re.Len())
	}
}

// tableEdge is one persisted edge of a table record, as the test reads
// it back in file order.
type tableEdge struct {
	hw.Edge
	class hw.LinkClass
}

// tableEdgesInOrder decodes a table record's base64 body by hand —
// palette, then uvarint (from, to, class) triples — and returns the
// edges in the order the record lists them.
func tableEdgesInOrder(t *testing.T, body []byte) []tableEdge {
	t.Helper()
	raw, err := base64.StdEncoding.DecodeString(string(body))
	if err != nil {
		t.Fatal(err)
	}
	var palette []hw.LinkClass
	rest, ok := decodeValue(raw, reflect.ValueOf(&palette).Elem())
	if !ok {
		t.Fatal("table palette did not decode")
	}
	var out []tableEdge
	for len(rest) > 0 {
		var v [3]uint64
		for k := range v {
			x, n := binary.Uvarint(rest)
			if n <= 0 {
				t.Fatal("table triple did not decode")
			}
			v[k], rest = x, rest[n:]
		}
		if v[2] >= uint64(len(palette)) {
			t.Fatalf("class index %d outside a palette of %d", v[2], len(palette))
		}
		out = append(out, tableEdge{hw.Edge{From: int(v[0]), To: int(v[1])}, palette[v[2]]})
	}
	return out
}

// v3Record is the struct whose json.Marshal encoding defined the v3
// record line; the migration tests write v3 lines with it.
type v3Record struct {
	Kind   string          `json:"kind"`
	V      int             `json:"v"`
	Digest string          `json:"digest,omitempty"`
	CRC    uint32          `json:"crc,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// v3Line returns a v3 report line for the configuration, as the v3
// store wrote it.
func v3Line(t *testing.T, sys core.System, wl core.Workload, rep *core.Report) []byte {
	t.Helper()
	rb, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(fmt.Appendf(nil, "mcudist-resultstore/v3\x00%#v\x00%#v\x00", sys, wl))
	line, err := json.Marshal(v3Record{Kind: "report", V: 3, Digest: fmt.Sprintf("v3-%x", h),
		CRC: crc32.ChecksumIEEE(rb), Report: rb})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// A store directory that holds only a v3 log opens empty and serves no
// hits, and the v3 log is left byte for byte as it was.
func TestV3LogIgnored(t *testing.T) {
	dir := t.TempDir()
	sys, wl := testPoint(2)
	rep := mustRun(t, sys, wl)
	v3Path := filepath.Join(dir, "results-v3.log")
	v3 := v3Line(t, sys, wl, rep)
	if err := os.WriteFile(v3Path, v3, 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Skipped() != 0 {
		t.Errorf("v3-only directory opened with %d entries, %d skipped; want 0, 0", s.Len(), s.Skipped())
	}
	if _, ok := s.Load(sys, wl); ok {
		t.Error("a v3 entry was served")
	}
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(v3Path); err != nil || !bytes.Equal(got, v3) {
		t.Errorf("the v3 log changed (err %v)", err)
	}
}

// A v3 line inside the v4 log is a foreign-version record: skipped,
// never served, and its neighbours are unaffected.
func TestV3LineInV4LogSkipped(t *testing.T) {
	dir := t.TempDir()
	sysA, wlA := testPoint(2)
	sysB, wlB := testPoint(4)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(sysB, wlB, mustRun(t, sysB, wlB)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(logPath(dir), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(v3Line(t, sysA, wlA, mustRun(t, sysA, wlA))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Skipped() != 1 || s2.Len() != 1 {
		t.Errorf("opened with %d entries, %d skipped; want 1, 1", s2.Len(), s2.Skipped())
	}
	if _, ok := s2.Load(sysA, wlA); ok {
		t.Error("the v3 line was served")
	}
	if _, ok := s2.Load(sysB, wlB); !ok {
		t.Error("the v4 entry next to the v3 line was lost")
	}
}

// appendWord appends one little-endian 8-byte word.
func appendWord(dst []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(dst, x) }

// appendFloats appends a length-prefixed float64 slice.
func appendFloats(dst []byte, xs []float64) []byte {
	if xs == nil {
		return appendWord(dst, nilLen)
	}
	dst = appendWord(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = appendWord(dst, math.Float64bits(x))
	}
	return dst
}

// appendInts appends a length-prefixed int64 slice.
func appendInts(dst []byte, xs []int64) []byte {
	if xs == nil {
		return appendWord(dst, nilLen)
	}
	dst = appendWord(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = appendWord(dst, uint64(x))
	}
	return dst
}

// v4Body spells out the v4 report body field by field, independently
// of the reflection walker. Reordering, adding or retyping a Report
// field changes the walker's output and fails the test below: such a
// change is a format change and needs a DigestVersion bump and an
// update here.
func v4Body(r *core.Report) []byte {
	f := func(x float64) uint64 { return math.Float64bits(x) }
	var b []byte
	for _, w := range []uint64{f(r.Cycles), f(r.Seconds),
		f(r.Breakdown.Compute), f(r.Breakdown.L2L1), f(r.Breakdown.L3), f(r.Breakdown.C2C),
		f(r.Energy.Compute), f(r.Energy.L3), f(r.Energy.L2), f(r.Energy.C2C),
		f(r.EDP), uint64(r.Tier), uint64(r.Syncs), uint64(r.L3Bytes), uint64(r.C2CBytes)} {
		b = appendWord(b, w)
	}
	b = appendWord(b, uint64(len(r.PerChip)))
	for _, c := range r.PerChip {
		for _, w := range []uint64{f(c.ComputeCycles), f(c.L3Cycles), f(c.L2L1Cycles), f(c.C2CCycles),
			uint64(c.L3Bytes), uint64(c.L3SpillBytes), uint64(c.L2L1Bytes), uint64(c.C2CSentBytes)} {
			b = appendWord(b, w)
		}
		b = appendFloats(b, c.C2CCyclesByClass)
		b = appendInts(b, c.C2CSentBytesByClass)
		b = appendWord(b, f(c.End))
	}
	b = appendWord(b, uint64(len(r.ByClass)))
	for _, c := range r.ByClass {
		for _, w := range []uint64{uint64(c.Class), uint64(c.Topology), uint64(c.Syncs),
			f(c.C2CCycles), uint64(c.C2CSentBytes)} {
			b = appendWord(b, w)
		}
		b = appendInts(b, c.C2CSentBytesByLink)
	}
	b = appendWord(b, uint64(len(r.C2CEnergyByClass)))
	for _, c := range r.C2CEnergyByClass {
		b = appendWord(b, uint64(c.Class))
		b = appendWord(b, uint64(c.Topology))
		b = appendWord(b, f(c.C2CJoules))
	}
	return b
}

// The line Append writes is pinned to the v4 layout: the hand-encoded
// header, a CRC over the digest and the base64 text, and a base64 body
// that is exactly the field-by-field encoding v4Body spells out. It
// parses back to its digest and body.
func TestAppendMatchesV4RecordEncoding(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, wl := testPoint(4)
	rep := mustRun(t, sys, wl)
	if len(rep.PerChip) == 0 || len(rep.ByClass) == 0 || len(rep.C2CEnergyByClass) == 0 {
		t.Fatal("the test point fills no per-chip or per-class rows")
	}
	if err := s.Append(sys, wl, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	d := Digest(sys, wl)
	body := base64.StdEncoding.EncodeToString(v4Body(rep))
	crc := crc32.ChecksumIEEE([]byte(d + body))
	want := fmt.Sprintf(`{"kind":"report","v":4,"digest":"%s","crc":%d,"report":"%s"}`+"\n", d, crc, body)
	if string(raw) != want {
		t.Fatalf("Append wrote\n%s\nwant the v4 record encoding\n%s", raw, want)
	}
	kind, gd, gb, ok := parseLine(raw)
	if !ok || kind != kindReport || string(gd) != d || string(gb) != body {
		t.Errorf("written line did not parse back (ok=%v, kind %q, digest %q)", ok, kind, gd)
	}
}

// decodeAllocs decodes raw as a report body and returns the bytes the
// decode allocated.
func decodeAllocs(raw []byte) (rep *core.Report, ok bool, allocated uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep = &core.Report{}
	ok = decodeReport(raw, rep)
	runtime.ReadMemStats(&after)
	return rep, ok, after.TotalAlloc - before.TotalAlloc
}

// FuzzReportLine checks the record-line parser and the report codec.
// The parser never panics and accepts only the exact line the encoder
// writes for the kind, digest and body it returns, and any body the
// encoder writes parses back to itself. Used as a raw report body, the
// input decodes without a panic, allocates at most a small multiple
// of its own length, and, when it decodes, is the canonical encoding
// of the report it decodes to.
func FuzzReportLine(f *testing.F) {
	sys, wl := testPoint(2)
	digest := Digest(sys, wl)
	rep, err := core.Run(sys, wl)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendReport(nil, rep))
	f.Fuzz(func(t *testing.T, line []byte) {
		if kind, d, body, ok := parseLine(line); ok {
			if want := appendLine(nil, kind, string(d), body); !bytes.Equal(line, want) {
				t.Fatalf("accepted %q, which the encoder writes as %q", line, want)
			}
		}
		written := appendLine(nil, kindReport, digest, line)
		kind, d, body, ok := parseLine(written)
		if !ok || kind != kindReport || string(d) != digest || !bytes.Equal(body, line) {
			t.Fatalf("encoded line %q did not parse back (ok=%v)", written, ok)
		}

		got, ok, allocated := decodeAllocs(line)
		if limit := 5*uint64(len(line)) + 8192; allocated > limit {
			t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", len(line), allocated, limit)
		}
		if ok && !bytes.Equal(appendReport(nil, got), line) {
			t.Fatalf("body %x decoded but does not re-encode to itself", line)
		}
	})
}

// FuzzTableLine checks the table codec and Open's handling of table
// lines. Used as a raw table body, the input decodes without a panic,
// and a decoded wiring re-encodes to a body that decodes to the same
// wiring. Used as a log line, it never panics, and a table is
// registered only under the digest its wiring reproduces.
func FuzzTableLine(f *testing.F) {
	f.Add(appendTable(nil, map[hw.Edge]hw.LinkClass{{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if edges, ok := decodeTable(data); ok {
			again, ok := decodeTable(appendTable(nil, edges))
			if !ok || !bytes.Equal(appendTable(nil, again), appendTable(nil, edges)) {
				t.Fatalf("table %x decoded but its re-encoding did not round-trip", data)
			}
		}
		s := &Store{index: map[string]entryRef{}, tables: map[string]bool{}}
		s.indexLine(data, 0, len(data), true)
		for digest := range s.tables {
			edges, ok := hw.TableEdges(digest)
			if !ok {
				t.Fatalf("table %s registered in the store but not in hw", digest)
			}
			if net, err := hw.TableNetwork(edges); err != nil || net.TableDigest != digest {
				t.Fatalf("table registered under %s, but its wiring digests to %s", digest, net.TableDigest)
			}
		}
	})
}

// BenchmarkResultStoreLoad measures one disk hit on a 64-chip report:
// the ReadAt, the header and CRC check, and the body decode.
func BenchmarkResultStoreLoad(b *testing.B) {
	sys, wl := scaledPoint()
	rep, err := core.Run(sys, wl)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(sys, wl, rep); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := s.Load(sys, wl); !ok {
			b.Fatal("miss")
		}
	}
}
