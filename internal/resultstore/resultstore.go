// Package resultstore is the persistent tier of the evaluation cache:
// a disk-backed, content-addressed, append-only log of core.Reports
// keyed by a canonical digest of the full (System, Workload)
// configuration. The in-process evalpool cache dies with the process,
// so every CLI invocation and CI run re-pays the whole exact-simulation
// bill; a Store opened on a cache directory makes sweeps incremental
// across runs — a configuration simulated once is never simulated
// again on that machine until the digest version changes.
//
// Design points:
//
//   - Content addressing reuses the canonicalization pattern of
//     hw.TableNetwork: a sha256 over an exact, deterministic rendering
//     of every field of the configuration. Two Points collide on one
//     entry exactly when the evalpool cache would have shared them.
//   - The digest is versioned (DigestVersion participates in the hash,
//     the digest string, the log filename, and every record), so any
//     format or semantics change invalidates old entries cleanly
//     instead of serving stale results.
//   - The log is append-only JSON lines with a per-record CRC. A
//     truncated or corrupt record — a crashed writer, a torn page — is
//     skipped (the configuration is simply re-simulated), never fatal.
//   - A report record's header — kind, version, digest and CRC, in the
//     exact layout json.Marshal gave the v3 record — is part of the
//     format. Open builds the index from each record's header and CRC
//     without decoding the report, Append encodes the report once, and
//     a disk hit decodes it once.
//   - Reports whose system routes over an explicit per-edge table
//     (hw.NetTable) persist the table wiring alongside the entry, so a
//     cold process rehydrates the registry before serving table-backed
//     configurations.
//   - Errors are never persisted: a failed evaluation may be transient
//     (or fixed by the next release), so only successful reports reach
//     the log.
//
// Concurrency: a Store is safe for concurrent use, and two Stores (or
// two processes) appending to the same directory interleave cleanly —
// every record is one O_APPEND write of one complete line, and readers
// tolerate duplicate entries (content addressing makes them
// identical).
package resultstore

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// DigestVersion is the version of the digest scheme and the log
// format. Bump it whenever the canonical rendering, the report schema,
// or the simulator's semantics change in a way that should invalidate
// cached results; old entries (and old log files, which carry the
// version in their name) are then ignored wholesale.
//
// v2: core.Workload gained the Batch field (decode micro-batch
// width), which changes the canonical %#v rendering of every
// workload.
//
// v3: hw.Params gained the Mem hierarchy (profile, DRAM channel,
// prefetch depth, SRAM banks, per-family tilings, DRAM energy), which
// changes the canonical rendering of every system.
const DigestVersion = 3

// Digest returns the canonical content address of one evaluation
// point: a versioned sha256 over an exact rendering of every System
// and Workload field (Go-syntax formatting reaches unexported fields
// like the collective plan's binding array, and float64 values render
// in shortest-round-trip form, so distinct bit patterns yield distinct
// digests). Two configurations digest equally exactly when the
// in-process evalpool cache would have shared their entry.
func Digest(sys core.System, wl core.Workload) string {
	h := sha256.New()
	fmt.Fprintf(h, "mcudist-resultstore/v%d\x00%#v\x00%#v\x00", DigestVersion, sys, wl)
	return fmt.Sprintf("v%d-%x", DigestVersion, h.Sum(nil))
}

// record is one table line of the append-only log, and the JSON view
// of any line that is not a valid report line of this version.
type record struct {
	// Kind is "report" or "table".
	Kind string `json:"kind"`
	// V is the digest/format version the record was written under;
	// records from other versions are ignored on read.
	V int `json:"v"`

	// Table records: the hw.TableNetwork content digest and the edge
	// list needed to re-register it in a cold process.
	Table string      `json:"table,omitempty"`
	Edges []tableEdge `json:"edges,omitempty"`
}

// reportPrefix starts every report line of this version. A report
// line is
//
//	{"kind":"report","v":3,"digest":"<digest>","crc":<crc>,"report":<report>}
//
// where <crc> is the CRC-32 (IEEE) of the compact <report> JSON and the
// crc field is absent when that CRC is zero. This is byte for byte what
// json.Marshal wrote for the v3 record struct, so the layout is part of
// the v3 format.
var reportPrefix = []byte(`{"kind":"report","v":` + strconv.Itoa(DigestVersion) + `,"digest":"`)

// appendReportLine appends the report line for digest and the compact
// report JSON body, newline included, to dst. The digest must need no
// JSON escaping, as every Digest result does.
func appendReportLine(dst []byte, digest string, body []byte) []byte {
	// The rest of the header, a 10-digit CRC and the closing "}\n"
	// take at most 30 bytes.
	dst = slices.Grow(dst, len(reportPrefix)+len(digest)+len(body)+30)
	dst = append(dst, reportPrefix...)
	dst = append(dst, digest...)
	dst = append(dst, '"')
	if crc := crc32.ChecksumIEEE(body); crc != 0 {
		dst = append(dst, `,"crc":`...)
		dst = strconv.AppendUint(dst, uint64(crc), 10)
	}
	dst = append(dst, `,"report":`...)
	dst = append(dst, body...)
	return append(dst, "}\n"...)
}

// parseReportLine returns the digest and report body of one complete
// report line of this version, its newline included. It decodes no
// JSON: ok is true only when the line is exactly what appendReportLine
// writes for that digest and body, so a torn, corrupt or
// foreign-version line is never mistaken for a hit.
func parseReportLine(line []byte) (digest, body []byte, ok bool) {
	rest, found := bytes.CutPrefix(line, reportPrefix)
	if !found {
		return nil, nil, false
	}
	end := bytes.IndexByte(rest, '"')
	if end <= 0 {
		return nil, nil, false
	}
	digest, rest = rest[:end], rest[end+1:]
	var crc uint64
	if r, found := bytes.CutPrefix(rest, []byte(`,"crc":`)); found {
		n := 0
		for ; n < len(r) && n <= 10 && '0' <= r[n] && r[n] <= '9'; n++ {
			crc = crc*10 + uint64(r[n]-'0')
		}
		if n == 0 || r[0] == '0' || crc > math.MaxUint32 {
			return nil, nil, false
		}
		rest = r[n:]
	}
	if body, found = bytes.CutPrefix(rest, []byte(`,"report":`)); !found {
		return nil, nil, false
	}
	if body, found = bytes.CutSuffix(body, []byte("}\n")); !found {
		return nil, nil, false
	}
	if crc32.ChecksumIEEE(body) != uint32(crc) {
		return nil, nil, false
	}
	return digest, body, true
}

// tableEdge is one wired edge of a persisted per-edge link table.
type tableEdge struct {
	From  int          `json:"from"`
	To    int          `json:"to"`
	Class hw.LinkClass `json:"class"`
}

// entryRef locates one report record inside the log.
type entryRef struct {
	offset int64
	length int
}

// Store is a handle on one cache directory's append-only result log.
// The zero value is not usable; construct with Open.
type Store struct {
	dir  string
	path string

	mu       sync.Mutex
	file     *os.File // O_APPEND write handle
	index    map[string]entryRef
	tables   map[string]bool // table digests already persisted
	skipped  int             // corrupt/truncated/foreign-version records ignored on open
	tornTail bool            // log ends mid-record (a writer died); heal before appending
}

// Open opens (creating if needed) the result store under dir. The
// whole log is scanned once: report records are indexed by digest,
// table records re-register their per-edge wirings, and records that
// are truncated, corrupt, or from another digest version are counted
// and skipped — a damaged log degrades to extra simulations, never to
// an error or a wrong result.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("results-v%d.log", DigestVersion))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		path:   path,
		file:   f,
		index:  map[string]entryRef{},
		tables: map[string]bool{},
	}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan reads the existing log and builds the digest index.
func (s *Store) scan() error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var offset int64
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			break
		}
		length := len(line)
		complete := err == nil // a line without its newline is a torn tail write
		s.tornTail = !complete
		s.indexLine(line, offset, length, complete)
		offset += int64(length)
		if err != nil {
			break
		}
	}
	return nil
}

// indexLine folds one log line into the index: report lines from
// their header and CRC alone, table lines by decoding them. Anything
// else is skipped.
func (s *Store) indexLine(line []byte, offset int64, length int, complete bool) {
	if !complete {
		s.skipped++
		return
	}
	if digest, _, ok := parseReportLine(line); ok {
		s.index[string(digest)] = entryRef{offset: offset, length: length}
		return
	}
	// Not a valid report line of this version: a table record, a
	// record from another version, or damage.
	var rec record
	if json.Unmarshal(line, &rec) != nil || rec.V != DigestVersion || rec.Kind != "table" {
		s.skipped++
		return
	}
	edges := make(map[hw.Edge]hw.LinkClass, len(rec.Edges))
	for _, e := range rec.Edges {
		edges[hw.Edge{From: e.From, To: e.To}] = e.Class
	}
	net, err := hw.TableNetwork(edges)
	if err != nil || net.TableDigest != rec.Table {
		// The wiring does not reproduce its recorded digest: the
		// record is damaged. TableNetwork interned it under its
		// actual content digest, which no entry references.
		s.skipped++
		return
	}
	s.tables[rec.Table] = true
}

// Load returns the persisted report for the configuration, or ok=false
// on a miss (no entry, damaged entry, or read failure — all of which
// the caller answers by simulating). The returned report carries the
// requested System and Workload verbatim, so it is indistinguishable
// from a fresh core.Run result, and must be treated as immutable like
// every cached report.
func (s *Store) Load(sys core.System, wl core.Workload) (*core.Report, bool) {
	digest := Digest(sys, wl)
	s.mu.Lock()
	ref, ok := s.index[digest]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	line := make([]byte, ref.length)
	if _, err := f.ReadAt(line, ref.offset); err != nil {
		return nil, false
	}
	d, body, ok := parseReportLine(line)
	if !ok || string(d) != digest {
		return nil, false
	}
	rep := &core.Report{}
	if json.Unmarshal(body, rep) != nil {
		return nil, false
	}
	// The requested configuration is the key; restating it exactly
	// sidesteps any serialization asymmetry in the System/Workload
	// echo (and makes the report self-describing for the caller).
	rep.System = sys
	rep.Workload = wl
	return rep, true
}

// Contains reports whether the configuration has a persisted entry.
func (s *Store) Contains(sys core.System, wl core.Workload) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[Digest(sys, wl)]
	return ok
}

// Append persists one successful evaluation. Configurations already
// present are not re-written (content addressing makes duplicates
// byte-equivalent), and a system routing over an explicit per-edge
// table writes the table wiring first so the entry is self-contained
// for cold processes. Errors are reported but callers typically treat
// a failed append as a cache-fill miss, not a failure of the
// evaluation itself.
func (s *Store) Append(sys core.System, wl core.Workload, rep *core.Report) error {
	digest := Digest(sys, wl)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[digest]; ok {
		return nil
	}
	if sys.HW.Network.Profile == hw.NetTable {
		if err := s.appendTableLocked(sys.HW.Network.TableDigest); err != nil {
			return err
		}
	}
	// json.Marshal output is already compact and HTML-escaped, so it
	// goes into the line as is.
	rb, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("resultstore: encode report: %w", err)
	}
	line := appendReportLine(nil, digest, rb)
	offset, err := s.writeLineLocked(line)
	if err != nil {
		return err
	}
	s.index[digest] = entryRef{offset: offset, length: len(line)}
	return nil
}

// appendTableLocked persists the per-edge wiring registered under the
// given hw table digest, once per store lifetime.
func (s *Store) appendTableLocked(tableDigest string) error {
	if s.tables[tableDigest] {
		return nil
	}
	edges, ok := hw.TableEdges(tableDigest)
	if !ok {
		return fmt.Errorf("resultstore: per-edge table %q is not registered", tableDigest)
	}
	rec := record{Kind: "table", V: DigestVersion, Table: tableDigest,
		Edges: make([]tableEdge, 0, len(edges))}
	for e, c := range edges {
		rec.Edges = append(rec.Edges, tableEdge{From: e.From, To: e.To, Class: c})
	}
	// Canonical edge order, matching hw.TableNetwork's digest walk.
	slices.SortFunc(rec.Edges, func(a, b tableEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: encode table: %w", err)
	}
	if _, err := s.writeLineLocked(append(line, '\n')); err != nil {
		return err
	}
	s.tables[tableDigest] = true
	return nil
}

// writeLineLocked appends one record line, which ends in its newline,
// in a single write (atomic under O_APPEND, so concurrent stores on the
// same directory never interleave partial records) and returns the
// record's offset. If the scan found the log ending mid-record — a
// writer died with its line half flushed — the first append leads with
// a newline so the damaged partial stays its own (skipped) line instead
// of swallowing this one.
func (s *Store) writeLineLocked(line []byte) (int64, error) {
	offset, err := s.file.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	if s.tornTail {
		line = append([]byte{'\n'}, line...)
		offset++
	}
	if _, err := s.file.Write(line); err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	s.tornTail = false
	return offset, nil
}

// CompactTo rewrites the store into dstDir, keeping only the newest
// valid record per digest (duplicates from concurrent writers, corrupt
// lines, torn tails, and foreign-version records are all dropped) and
// each referenced per-edge table wiring once. The source store is not
// modified — CI swaps the compacted directory in place of the old one
// — and the returned store is open for use. Records are written in
// digest order, so compacting equal contents yields byte-identical
// logs. Compacting a store onto its own directory is rejected.
func (s *Store) CompactTo(dstDir string) (*Store, error) {
	if same, err := sameDirAs(s.dir, dstDir); err != nil {
		return nil, err
	} else if same {
		return nil, fmt.Errorf("resultstore: compact target %q is the store's own directory", dstDir)
	}

	s.mu.Lock()
	digests := make([]string, 0, len(s.index))
	refs := make(map[string]entryRef, len(s.index))
	for d, ref := range s.index {
		digests = append(digests, d)
		refs[d] = ref
	}
	tables := make([]string, 0, len(s.tables))
	for t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.Unlock()
	slices.Sort(digests)
	slices.Sort(tables)

	dst, err := Open(dstDir)
	if err != nil {
		return nil, err
	}
	src, err := os.Open(s.path)
	if err != nil {
		dst.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	defer src.Close()

	dst.mu.Lock()
	defer dst.mu.Unlock()
	for _, t := range tables {
		// The scan re-registered every persisted wiring, so the edges
		// are available to re-encode.
		if err := dst.appendTableLocked(t); err != nil {
			dst.file.Close()
			return nil, err
		}
	}
	for _, digest := range digests {
		ref := refs[digest]
		line := make([]byte, ref.length)
		if _, err := src.ReadAt(line, ref.offset); err != nil {
			dst.file.Close()
			return nil, fmt.Errorf("resultstore: compact read %s: %w", digest, err)
		}
		// Re-validate before copying: the record was clean at scan
		// time, but the bytes travel once more.
		if d, _, ok := parseReportLine(line); !ok || string(d) != digest {
			continue
		}
		if _, ok := dst.index[digest]; ok {
			continue
		}
		offset, err := dst.writeLineLocked(line)
		if err != nil {
			dst.file.Close()
			return nil, err
		}
		dst.index[digest] = entryRef{offset: offset, length: len(line)}
	}
	return dst, nil
}

// sameDirAs reports whether two directory paths name the same place on
// disk (lexically after Abs, or the same inode when both exist).
func sameDirAs(a, b string) (bool, error) {
	aa, err := filepath.Abs(a)
	if err != nil {
		return false, fmt.Errorf("resultstore: %w", err)
	}
	ab, err := filepath.Abs(b)
	if err != nil {
		return false, fmt.Errorf("resultstore: %w", err)
	}
	if aa == ab {
		return true, nil
	}
	fa, errA := os.Stat(aa)
	fb, errB := os.Stat(ab)
	if errA != nil || errB != nil {
		return false, nil // at most one exists; they cannot be the same
	}
	return os.SameFile(fa, fb), nil
}

// Len returns the number of distinct persisted configurations.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Skipped returns the number of records ignored when the log was
// opened: truncated or corrupt lines and records from other digest
// versions.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// SizeBytes returns the current size of the log file on disk.
func (s *Store) SizeBytes() int64 {
	fi, err := os.Stat(s.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Dir returns the cache directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Close releases the append handle. Load keeps working (it opens the
// log per call), but Append fails after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.file.Close()
}
