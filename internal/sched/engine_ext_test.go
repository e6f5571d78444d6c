// End-to-end tests for the long-lived scheduling engine, in the
// external test package so every schedule can run through the full
// validator (verify imports sched, so the in-package tests cannot).
//
// The contract under test is the engine's whole reason to exist:
// sharing a warmed route cache and pooling scheduler states across
// concurrent requests must change THROUGHPUT ONLY — every schedule
// stays bit-identical to a cold, sequential, single-threaded run of
// the same algorithm on the same inputs.
package sched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
)

// enginePresets are the named algorithms the engine must serve
// faithfully, including the expensive tentative-EFT baseline.
func enginePresets() map[string]*sched.ListScheduler {
	return map[string]*sched.ListScheduler{
		"BA":     sched.NewBA(),
		"BA-EFT": sched.NewBASinnen(),
		"OIHSA":  sched.NewOIHSA(),
		"BBSA":   sched.NewBBSA(),
	}
}

// engineGraph builds the i'th distinct request DAG: sizes, shapes and
// costs vary with i so consecutive pooled requests never share a
// shape.
func engineGraph(i int) *dag.Graph {
	r := rand.New(rand.NewSource(int64(1000 + i)))
	return dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    10 + (i*7)%30,
		TaskCost: dag.CostDist{Lo: 1, Hi: 40 + i%20},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 150 + (i*13)%100},
	})
}

func engineTopology() *network.Topology {
	return network.Star(6, network.Uniform(1), network.Uniform(1))
}

// coldRun schedules g exactly as a one-shot scheduler would: fresh
// state, private route cache, sequential probes.
func coldRun(t *testing.T, name string, opts sched.Options, g *dag.Graph, net *network.Topology) *sched.Schedule {
	t.Helper()
	opts.ProbeWorkers = 1
	s, err := sched.NewCustom(name, opts).Schedule(g, net)
	if err != nil {
		t.Fatalf("cold %s: %v", name, err)
	}
	return s
}

// mustVerify runs the full validator on a schedule.
func mustVerify(t *testing.T, s *sched.Schedule) {
	t.Helper()
	if res := verify.Verify(s); !res.OK() {
		t.Fatalf("invalid schedule: %v", res)
	}
}

// TestEngineMatchesColdRun drives every preset through a warmed engine
// at ProbeWorkers 1 and 8 — twice per graph, so the second pass runs
// entirely on pooled states — and demands bit-identical agreement with
// cold sequential one-shot runs: presets × probe workers × engine vs
// one-shot, all under DiffSchedules.
func TestEngineMatchesColdRun(t *testing.T) {
	for name, ls := range enginePresets() {
		name, ls := name, ls
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					net := engineTopology()
					opts := ls.Opts
					opts.ProbeWorkers = workers
					eng, err := sched.NewEngine(net, sched.EngineOptions{
						Name: name, Opts: opts, WarmRoutes: true, SelfCheckEvery: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Drain()
					for pass := 0; pass < 2; pass++ {
						for i := 0; i < 6; i++ {
							g := engineGraph(i)
							got, err := eng.Schedule(g)
							if err != nil {
								t.Fatalf("pass %d graph %d: %v", pass, i, err)
							}
							mustVerify(t, got)
							want := coldRun(t, name, ls.Opts, g, net)
							if d := sched.DiffSchedules(want, got); d != "" {
								t.Fatalf("pass %d graph %d diverged from cold run: %s", pass, i, d)
							}
						}
					}
					st := eng.Stats()
					if st.Requests != 12 || st.Failures != 0 {
						t.Fatalf("stats: %+v", st)
					}
					if st.SelfChecks == 0 {
						t.Fatal("self-check oracle never ran")
					}
				})
			}
		})
	}
}

// TestNewEngineRejectsBadOptions pins that NewEngine refuses, at
// construction, every option set no scheduler state can be built for —
// instead of accepting it and then failing every request.
func TestNewEngineRejectsBadOptions(t *testing.T) {
	bad := map[string]sched.Options{
		"unknown engine":        {Engine: 99},
		"unknown routing":       {Routing: 99},
		"duplication+insertion": {Duplication: true, TaskPolicy: sched.TaskInsertion},
	}
	for name, opts := range bad {
		if _, err := sched.NewEngine(engineTopology(), sched.EngineOptions{Opts: opts}); err == nil {
			t.Errorf("%s: NewEngine accepted options %+v", name, opts)
		}
	}
}

// TestEngineConcurrentStress is the shared-topology race pin: 32
// goroutines schedule distinct DAGs against ONE topology and ONE
// shared route cache. Under -race this proves the sharing discipline;
// the per-result checks prove concurrency changed nothing — every
// schedule verifies and is bit-identical to its cold sequential run.
func TestEngineConcurrentStress(t *testing.T) {
	const goroutines = 32
	net := engineTopology()
	opts := sched.NewBASinnen().Opts // tentative EFT: heaviest cache traffic
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: "BA-EFT", Opts: opts, MaxConcurrent: 8, WarmRoutes: true, SelfCheckEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()

	got := make([]*sched.Schedule, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = eng.Schedule(engineGraph(i))
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		mustVerify(t, got[i])
		want := coldRun(t, "BA-EFT", opts, engineGraph(i), net)
		if d := sched.DiffSchedules(want, got[i]); d != "" {
			t.Fatalf("request %d diverged from cold run: %s", i, d)
		}
	}
	if st := eng.Stats(); st.Requests != goroutines || st.Failures != 0 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEngineCacheHitRate pins the amortization claim: after warmup,
// steady-state requests should find well over 90% of their route
// lookups already cached — the static BFS work is paid once, not per
// request.
func TestEngineCacheHitRate(t *testing.T) {
	net := engineTopology()
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: "BA-EFT", Opts: sched.NewBASinnen().Opts, WarmRoutes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	for i := 0; i < 8; i++ {
		s, err := eng.Schedule(engineGraph(i))
		if err != nil {
			t.Fatal(err)
		}
		mustVerify(t, s)
	}
	st := eng.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no route cache hits recorded")
	}
	if st.CacheHitRate < 0.9 {
		t.Fatalf("warm cache hit rate %.3f, want > 0.9 (hits %d, misses %d)",
			st.CacheHitRate, st.CacheHits, st.CacheMisses)
	}
}

// TestEngineDrain pins the lifecycle: Drain waits for in-flight work,
// then every later request fails with ErrEngineClosed.
func TestEngineDrain(t *testing.T) {
	net := engineTopology()
	eng, err := sched.NewEngine(net, sched.EngineOptions{
		Name: "BA", Opts: sched.NewBA().Opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 4
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			s, err := eng.Schedule(engineGraph(i))
			if err == nil {
				if res := verify.Verify(s); !res.OK() {
					err = fmt.Errorf("invalid schedule: %v", res)
				}
			}
			results <- err
		}(i)
	}
	eng.Drain()
	// Drain returned: the admitted subset has fully finished. Requests
	// that lost the admission race fail cleanly instead of hanging.
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil && !errors.Is(err, sched.ErrEngineClosed) {
			t.Fatalf("in-flight request: %v", err)
		}
	}
	if _, err := eng.Schedule(engineGraph(0)); !errors.Is(err, sched.ErrEngineClosed) {
		t.Fatalf("post-drain Schedule: %v, want ErrEngineClosed", err)
	}
}
