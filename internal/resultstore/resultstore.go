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
//   - One reflection walker (codec.go) defines the canonical binary
//     encoding of a value: every leaf in field order, integers and
//     float64 bits as 8 little-endian bytes, strings and slices
//     length-prefixed. It is both the input of the digest and the
//     stored report body, so a field added to the configuration
//     reaches the digest and a field added to core.Report is
//     persisted, bit-exactly, with no change here.
//   - Content addressing follows hw.TableNetwork: a sha256 over that
//     exact, deterministic encoding of every field of the
//     configuration. Two Points collide on one entry exactly when the
//     evalpool cache would have shared them.
//   - The digest is versioned (DigestVersion participates in the hash,
//     the digest string, the log filename, and every record), so any
//     format or semantics change invalidates old entries cleanly
//     instead of serving stale results.
//   - The log is append-only JSON lines, one record per line: a
//     hand-encoded header (kind, version, digest, CRC) and the binary
//     body as one base64 string. A truncated or corrupt record — a
//     crashed writer, a torn page — fails its CRC or its decode and is
//     skipped (the configuration is simply re-simulated), never fatal.
//   - Open builds the index from each report record's header and CRC
//     without decoding the body, and keeps one read handle open; a disk
//     hit reads its line with ReadAt and decodes the body once.
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
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// DigestVersion is the version of the digest scheme and the log
// format. Bump it whenever the canonical encoding, the report schema,
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
//
// v4: the digest hashes the binary canonical encoding (codec.go)
// instead of the %#v rendering, so field names no longer reach it; the
// report body is that encoding in base64 without the System/Workload
// echo; table records carry a binary palette-and-triples body.
const DigestVersion = 4

// digestPrefix starts the bytes every Digest hashes.
var digestPrefix = "mcudist-resultstore/v" + strconv.Itoa(DigestVersion) + "\x00"

// Digest returns the canonical content address of one evaluation
// point: a versioned sha256 over the canonical encoding of every
// System and Workload leaf — unexported ones like the collective
// plan's binding array included, and float64 values as their bits, so
// distinct bit patterns yield distinct digests. Two configurations
// digest equally exactly when the in-process evalpool cache would have
// shared their entry.
func Digest(sys core.System, wl core.Workload) string {
	var buf [1024]byte
	b := append(buf[:0], digestPrefix...)
	b = appendValue(b, reflect.ValueOf(&sys).Elem())
	b = appendValue(b, reflect.ValueOf(&wl).Elem())
	sum := sha256.Sum256(b)
	return "v" + strconv.Itoa(DigestVersion) + "-" + hex.EncodeToString(sum[:])
}

// The two record kinds. A record's body field is named after its kind.
const (
	kindReport = "report"
	kindTable  = "table"
)

// lineHead and bodyKey are the fixed parts of a record line of each
// kind (see appendLine).
var lineHead, bodyKey = map[string][]byte{}, map[string][]byte{}

func init() {
	for _, kind := range []string{kindReport, kindTable} {
		lineHead[kind] = []byte(`{"kind":"` + kind + `","v":` + strconv.Itoa(DigestVersion) + `,"digest":"`)
		bodyKey[kind] = []byte(`,"` + kind + `":"`)
	}
}

// appendLine appends one record line, newline included, to dst:
//
//	{"kind":"<kind>","v":4,"digest":"<digest>","crc":<crc>,"<kind>":"<body>"}
//
// where <body> is the standard base64 of the record's binary body and
// <crc> the CRC-32 (IEEE) of <digest> followed by <body>, so damage to
// either is caught. The line is valid JSON and holds no newline, as
// long as the digest needs no JSON escaping, which every Digest and hw
// table digest satisfies.
func appendLine(dst []byte, kind, digest string, body []byte) []byte {
	// The CRC key, a 10-digit CRC and the closing "}\n" take at most
	// 21 bytes.
	dst = slices.Grow(dst, len(lineHead[kind])+len(digest)+len(bodyKey[kind])+len(body)+21)
	dst = append(dst, lineHead[kind]...)
	dst = append(dst, digest...)
	crc := lineCRC(dst[len(dst)-len(digest):], body)
	dst = append(dst, `","crc":`...)
	dst = strconv.AppendUint(dst, uint64(crc), 10)
	dst = append(dst, bodyKey[kind]...)
	dst = append(dst, body...)
	return append(dst, "\"}\n"...)
}

// parseLine returns the kind, digest and base64 body of one complete
// record line of this version, its newline included. It decodes no
// JSON: ok is true only when the line is exactly what appendLine
// writes for that kind, digest and body, so a torn, corrupt or
// foreign-version line is never mistaken for a record.
func parseLine(line []byte) (kind string, digest, body []byte, ok bool) {
	var rest []byte
	for _, k := range []string{kindReport, kindTable} {
		if r, found := bytes.CutPrefix(line, lineHead[k]); found {
			kind, rest = k, r
			break
		}
	}
	if kind == "" {
		return "", nil, nil, false
	}
	end := bytes.IndexByte(rest, '"')
	if end <= 0 {
		return "", nil, nil, false
	}
	digest, rest = rest[:end], rest[end:]
	rest, found := bytes.CutPrefix(rest, []byte(`","crc":`))
	if !found {
		return "", nil, nil, false
	}
	var crc uint64
	n := 0
	for ; n < len(rest) && n <= 10 && '0' <= rest[n] && rest[n] <= '9'; n++ {
		crc = crc*10 + uint64(rest[n]-'0')
	}
	if n == 0 || (rest[0] == '0' && n > 1) || crc > math.MaxUint32 {
		return "", nil, nil, false
	}
	if body, found = bytes.CutPrefix(rest[n:], bodyKey[kind]); !found {
		return "", nil, nil, false
	}
	if body, found = bytes.CutSuffix(body, []byte("\"}\n")); !found {
		return "", nil, nil, false
	}
	if lineCRC(digest, body) != uint32(crc) {
		return "", nil, nil, false
	}
	return kind, digest, body, true
}

// lineCRC is the CRC-32 (IEEE) of a record's digest followed by its
// base64 body.
func lineCRC(digest, body []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(digest), crc32.IEEETable, body)
}

// decodeBase64 returns the bytes a record body encodes, or nil when
// the body is not valid base64 (no record body decodes from nil).
func decodeBase64(body []byte) []byte {
	raw, err := base64.StdEncoding.AppendDecode(nil, body)
	if err != nil {
		return nil
	}
	return raw
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
	rfile    *os.File // O_RDONLY handle: the scan, Load and CompactTo read through it
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
	rf, err := os.Open(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		path:   path,
		file:   f,
		rfile:  rf,
		index:  map[string]entryRef{},
		tables: map[string]bool{},
	}
	s.scan()
	return s, nil
}

// scan reads the existing log and builds the digest index.
func (s *Store) scan() {
	r := bufio.NewReader(s.rfile)
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
}

// indexLine folds one log line into the index: report lines from
// their header and CRC alone, table lines by decoding them. Anything
// else — a torn or corrupt line, a record of another version — is
// skipped.
func (s *Store) indexLine(line []byte, offset int64, length int, complete bool) {
	kind, digest, body, ok := parseLine(line)
	if !complete || !ok {
		s.skipped++
		return
	}
	if kind == kindReport {
		s.index[string(digest)] = entryRef{offset: offset, length: length}
		return
	}
	edges, ok := decodeTable(decodeBase64(body))
	var net hw.Network
	var err error
	if ok {
		net, err = hw.TableNetwork(edges)
	}
	if !ok || err != nil || net.TableDigest != string(digest) {
		// The body is damaged, or its wiring does not reproduce the
		// recorded digest. TableNetwork interned such a wiring under
		// its actual content digest, which no entry references.
		s.skipped++
		return
	}
	s.tables[net.TableDigest] = true
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
	line := make([]byte, ref.length)
	if _, err := s.rfile.ReadAt(line, ref.offset); err != nil {
		return nil, false
	}
	kind, d, body, ok := parseLine(line)
	if !ok || kind != kindReport || string(d) != digest {
		return nil, false
	}
	rep := &core.Report{}
	if !decodeReport(decodeBase64(body), rep) {
		return nil, false
	}
	// The requested configuration is the key, so the body does not
	// store it: restating it makes the report self-describing for the
	// caller.
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
	body := base64.StdEncoding.AppendEncode(nil, appendReport(nil, rep))
	line := appendLine(nil, kindReport, digest, body)
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
	body := base64.StdEncoding.AppendEncode(nil, appendTable(nil, edges))
	if _, err := s.writeLineLocked(appendLine(nil, kindTable, tableDigest, body)); err != nil {
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
	if err := dst.copyFrom(s, tables, digests, refs); err != nil {
		dst.Close()
		return nil, err
	}
	return dst, nil
}

// copyFrom writes the given table wirings and then the report records
// of src at refs, in the order given, into the empty store s.
func (s *Store) copyFrom(src *Store, tables, digests []string, refs map[string]entryRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tables {
		// The scan re-registered every persisted wiring, so the edges
		// are available to re-encode.
		if err := s.appendTableLocked(t); err != nil {
			return err
		}
	}
	for _, digest := range digests {
		ref := refs[digest]
		line := make([]byte, ref.length)
		if _, err := src.rfile.ReadAt(line, ref.offset); err != nil {
			return fmt.Errorf("resultstore: compact read %s: %w", digest, err)
		}
		// Re-validate before copying: the record was clean at scan
		// time, but the bytes travel once more.
		if kind, d, _, ok := parseLine(line); !ok || kind != kindReport || string(d) != digest {
			continue
		}
		if _, ok := s.index[digest]; ok {
			continue
		}
		offset, err := s.writeLineLocked(line)
		if err != nil {
			return err
		}
		s.index[digest] = entryRef{offset: offset, length: len(line)}
	}
	return nil
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

// Close releases the append and read handles. Every later Load is a
// miss and every later Append fails; Len, Skipped, Contains and
// SizeBytes keep answering from the index and the file on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.file.Close(), s.rfile.Close())
}
