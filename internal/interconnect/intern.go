package interconnect

import (
	"sync"
	"sync/atomic"

	"mcudist/internal/hw"
)

// scheduleKey identifies one lowered schedule. hw.Network is a
// comparable value — explicit per-edge tables are carried by their
// canonical sha256 content digest, exactly like the evalpool cache
// key — so two platforms request the same entry exactly when their
// wiring, chip count, and topology match. GroupSize participates only
// for the tree-lowered shapes; the ring and the fully-connected
// exchange never consult it and normalize it away, so platforms
// differing only in an unused group size share one entry.
type scheduleKey struct {
	net   hw.Network
	n     int
	topo  hw.Topology
	group int
}

// internEntry memoizes one lowering. The first requester lowers and
// validates inside the sync.Once; concurrent requesters of the same
// key block on the Once and then read the settled result.
type internEntry struct {
	once sync.Once
	s    *Schedule
	err  error
}

var (
	internMu  sync.Mutex
	internMap = map[scheduleKey]*internEntry{}
	lowerings atomic.Uint64
)

// CachedSchedule returns the lowered, validated schedule of the
// platform's topology over n chips, served from a process-wide,
// concurrency-safe intern cache keyed by (network, chips, topology).
// Lowering and structural validation run once per distinct key; every
// later request — every simulation of the same platform shape — returns
// the interned schedule without re-lowering, which keeps schedule
// construction off the simulator's hot path during sweeps and
// autotuning. The returned schedule is shared between callers and must
// be treated as immutable.
func CachedSchedule(p hw.Params, n int) (*Schedule, error) {
	key := scheduleKey{net: p.Network, n: n, topo: p.Topology, group: p.GroupSize}
	if p.Topology == hw.TopoRing || p.Topology == hw.TopoFullyConnected {
		key.group = 0
	}
	internMu.Lock()
	e, ok := internMap[key]
	if !ok {
		e = &internEntry{}
		internMap[key] = e
	}
	internMu.Unlock()
	e.once.Do(func() {
		lowerings.Add(1)
		s, err := NewSchedule(p, n)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			e.err = err
			return
		}
		e.s = s
	})
	return e.s, e.err
}

// Lowerings returns the number of schedule lowerings the intern cache
// has performed since process start (cache misses, including failed
// lowerings). A sweep that re-simulates the same (network, chips,
// topology) triples leaves this counter unchanged — the property the
// cache-hit tests pin.
func Lowerings() uint64 { return lowerings.Load() }

// ResetScheduleCache drops every interned schedule (the cache has no
// eviction of its own). The lowering counter keeps counting across
// resets. Primarily a test hook; per-edge tables registered with
// hw.TableNetwork stay registered.
func ResetScheduleCache() {
	internMu.Lock()
	internMap = map[scheduleKey]*internEntry{}
	internMu.Unlock()
}
