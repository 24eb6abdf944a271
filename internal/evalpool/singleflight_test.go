package evalpool

import (
	"sync"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/model"
)

// Many goroutines racing on one uncached point must collapse into a
// single simulation: the singleflight guarantee. Every waiter shares
// the one settled report, the metering stays exact (one evaluation,
// one simulation, N-1 memory hits), and the race detector sees no
// unsynchronized access.
func TestSingleflightOneSimulationPerPoint(t *testing.T) {
	p := New(8)
	sys := core.DefaultSystem(4)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}

	const goroutines = 64
	reports := make([]*core.Report, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			start.Wait() // release everyone at once
			rep, err := p.Run(sys, wl)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}()
	}
	start.Done()
	done.Wait()

	if sims := p.Simulations(); sims != 1 {
		t.Errorf("%d goroutines on one digest ran %d simulations, want exactly 1", goroutines, sims)
	}
	if evals := p.Evaluations(); evals != 1 {
		t.Errorf("%d goroutines on one digest settled %d evaluations, want exactly 1", goroutines, evals)
	}
	for i, rep := range reports {
		if rep != reports[0] {
			t.Fatalf("goroutine %d got a different report pointer: the flight's result was not shared", i)
		}
	}
	st := p.Stats()
	if st.MemoryHits != goroutines-1 {
		t.Errorf("memory hits %d, want %d (every joiner of the flight)", st.MemoryHits, goroutines-1)
	}
}

// Reset must not break the singleflight guarantee: requests that
// joined a flight before the cache drop still share its result, and
// the flight settles into the post-Reset cache so later requests hit
// memory instead of re-simulating.
func TestSingleflightSurvivesReset(t *testing.T) {
	p := New(8)
	sys := core.DefaultSystem(2)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}

	// Hold the flight open until Reset has landed, so the cache drop
	// always falls inside the flight.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { simulate = core.Run })
	simulate = func(sys core.System, wl core.Workload) (*core.Report, error) {
		once.Do(func() { close(started) })
		<-release
		return core.Run(sys, wl)
	}

	const goroutines = 32
	var done sync.WaitGroup
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer done.Done()
			if _, err := p.Run(sys, wl); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started
	p.Reset() // during the flight: must not double-simulate
	close(release)
	done.Wait()

	if sims := p.Simulations(); sims != 1 {
		t.Errorf("Reset during the flight caused %d simulations, want exactly 1", sims)
	}
	// The flight settled after the Reset, so its result landed in the
	// live cache: this request is a pure memory hit.
	before := p.Evaluations()
	if _, err := p.Run(sys, wl); err != nil {
		t.Fatal(err)
	}
	if p.Evaluations() != before {
		t.Error("post-Reset request missed memory although the flight settled after Reset")
	}
}

// Failed evaluations singleflight too, and stay retryable: the error
// is memoized until Reset, then the next request re-evaluates.
func TestSingleflightErrorMemoizedUntilReset(t *testing.T) {
	p := New(4)
	sys := core.DefaultSystem(0) // invalid: zero chips fails validation
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}

	if _, err := p.Run(sys, wl); err == nil {
		t.Fatal("zero-chip system evaluated without error")
	}
	evalsAfterFirst := p.Evaluations()
	if _, err := p.Run(sys, wl); err == nil {
		t.Fatal("memoized failure lost")
	}
	if p.Evaluations() != evalsAfterFirst {
		t.Error("memoized error re-evaluated before Reset")
	}
	p.Reset()
	if _, err := p.Run(sys, wl); err == nil {
		t.Fatal("failure not retried after Reset")
	}
	if p.Evaluations() != evalsAfterFirst+1 {
		t.Error("error not re-evaluated after Reset")
	}
}
