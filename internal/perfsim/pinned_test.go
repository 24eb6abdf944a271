package perfsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// pinnedTile is a collective staging tile that divides none of the
// grid's payloads, so every sync ends on a remainder tile.
const pinnedTile = 3000

// pinnedBitsFile holds one line per grid point: the point's name and a
// digest of its report's bits, or the lowering error.
const pinnedBitsFile = "testdata/pinned_bits.txt"

// reportBits returns a digest of the float64 bits (and every integer)
// of the report fields the collective pricing feeds: TotalCycles,
// Breakdown, PerChip, ByClass and LinkClasses, plus the sync and byte
// totals.
func reportBits(r *Result) string {
	h := sha256.New()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		var buf [8]byte
		switch v.Kind() {
		case reflect.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
			h.Write(buf[:])
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
			h.Write(buf[:])
		case reflect.Slice:
			binary.LittleEndian.PutUint64(buf[:], uint64(v.Len()))
			h.Write(buf[:])
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic(fmt.Sprintf("reportBits: unhandled kind %s", v.Kind()))
		}
	}
	for _, v := range []any{r.TotalCycles, r.Breakdown, r.PerChip, r.ByClass, r.LinkClasses,
		r.Syncs, r.TreeDepth, r.TotalC2CBytes} {
		walk(reflect.ValueOf(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// pinnedGrid simulates every point of the pinning grid — topology ×
// network × strategy × failure option × chip count — and returns one
// line per point.
func pinnedGrid(t *testing.T) []string {
	t.Helper()
	cfg := model.TinyLlamaScaled64()
	mipi := hw.MIPI()
	networks := []struct {
		name string
		net  func(n int) (hw.Network, error)
	}{
		{"uniform", func(int) (hw.Network, error) { return hw.UniformNetwork(mipi), nil }},
		{"clustered4x10", func(int) (hw.Network, error) { return hw.ClusteredNetwork(mipi, mipi.Slower(10), 4), nil }},
		{"torus", func(n int) (hw.Network, error) {
			x := 1
			for x*x < n {
				x *= 2
			}
			return hw.TorusNetwork(x, n/x, mipi)
		}},
		// A 2-D torus routes no collective schedule; its n×1 form is
		// ring-wired, so the ring lowers on a per-edge table.
		{"torus1d", func(n int) (hw.Network, error) { return hw.TorusNetwork(n, 1, mipi) }},
	}
	options := []struct {
		name string
		opts deploy.Options
	}{
		{"none", deploy.Options{}},
		{"straggler", deploy.Options{StragglerChip: 3, StragglerFactor: 0.5}},
		{"degraded", deploy.Options{DegradedLinkChip: 2, DegradedLinkFactor: 0.25}},
	}
	var lines []string
	for _, topo := range hw.Topologies() {
		for _, nw := range networks {
			for _, strategy := range []partition.Strategy{partition.TensorParallel, partition.Replicated} {
				for _, o := range options {
					for _, n := range []int{8, 64} {
						name := fmt.Sprintf("%s/%s/%s/%s/%d", topo, nw.name, strategy, o.name, n)
						net, err := nw.net(n)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var p *partition.Plan
						if strategy == partition.Replicated {
							p, err = partition.NewReplicated(cfg, n)
						} else {
							p, err = partition.NewTensorParallel(cfg, n)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						hwp := hw.Siracusa()
						hwp.Topology = topo
						hwp.Network = net
						opts := o.opts
						opts.CommTileBytes = pinnedTile
						d, err := deploy.New(p, hwp, model.Prompt, model.PaperSeqLen(cfg, model.Prompt), opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if strategy == partition.TensorParallel && d.ReducePayload%pinnedTile == 0 {
							t.Fatalf("%s: reduce payload %d leaves no remainder tile", name, d.ReducePayload)
						}
						res, err := Run(d)
						if err != nil {
							lines = append(lines, fmt.Sprintf("%s error %s", name, err))
							continue
						}
						lines = append(lines, fmt.Sprintf("%s %s", name, reportBits(res)))
					}
				}
			}
		}
	}
	return lines
}

// The reported bits of every grid point stay exactly what the
// committed file records: a change to how collectives are priced that
// moves any cycle, byte or class counter by even one ulp fails here.
func TestPinnedReportBits(t *testing.T) {
	want, err := os.ReadFile(pinnedBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	got := pinnedGrid(t)
	if len(got) != len(wantLines) {
		t.Fatalf("grid has %d points, %s has %d", len(got), pinnedBitsFile, len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("point %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}
