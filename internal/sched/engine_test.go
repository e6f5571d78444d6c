package sched

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/network"
)

// Pool-hygiene tests for the engine's state reuse. These live in the
// package so they can drive resetFor directly and point the rollback
// oracle's fingerprint machinery at the pooled state: the contract is
// that a state which served request N and was reset for request N+1 is
// indistinguishable — bit for bit, arenas, journals, timelines — from
// a state built cold for request N+1.

// hygieneOptions are the policy sets whose states exercise every
// column family: slot timelines with insertion + duplication, and
// bandwidth timelines with chunk arenas.
func hygieneOptions() map[string]Options {
	return map[string]Options{
		"slots-full": {ProcSelect: ProcSelectEFT, Insertion: InsertionOptimal,
			EdgeOrder: EdgeOrderDescCost, Duplication: true},
		"insertion": {ProcSelect: ProcSelectEFT, TaskPolicy: TaskInsertion},
		"bandwidth": {ProcSelect: ProcSelectEFT, Engine: EngineBandwidth},
	}
}

func hygieneGraph(seed int64, tasks int) *dag.Graph {
	r := rand.New(rand.NewSource(seed))
	return dag.RandomLayered(r, dag.RandomLayeredParams{
		Tasks:    tasks,
		TaskCost: dag.CostDist{Lo: 1, Hi: 50},
		EdgeCost: dag.CostDist{Lo: 1, Hi: 200},
	})
}

// TestResetForNoResidue is the fingerprint oracle for pooled reuse: a
// state that scheduled a LARGE graph — populating arenas, journals and
// timelines — then was reset for a small, differently shaped graph
// must match a cold state for that graph exactly, and must go on to
// produce the bit-identical schedule.
//
// edgelint:ignore verifysched — in-package (verify would cycle); the
// schedules here are compared bit-for-bit against cold runs, and the
// same engine paths run under the full validator in engine_ext_test.go.
func TestResetForNoResidue(t *testing.T) {
	for name, opts := range hygieneOptions() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			net := network.Star(5, network.Uniform(1), network.Uniform(1))
			big := hygieneGraph(7, 40)
			small := hygieneGraph(8, 9)

			pooled, err := coldState(big, net, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scheduleOn(pooled, "big"); err != nil {
				t.Fatal(err)
			}
			// The engine's put/get cycle: detach the escaped columns,
			// then reset for the next request.
			pooled.g = nil
			pooled.tasks = nil
			pooled.dups = nil
			pooled.resetFor(small)

			fresh, err := coldState(small, net, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Shape first: the oracle's diff indexes by the fresh
			// state's entity counts, so any size residue is named here.
			if len(pooled.tasks) != len(fresh.tasks) ||
				len(pooled.procFinish) != len(fresh.procFinish) ||
				len(pooled.edges.meta) != len(fresh.edges.meta) ||
				len(pooled.tl) != len(fresh.tl) ||
				len(pooled.bw) != len(fresh.bw) ||
				len(pooled.ptl) != len(fresh.ptl) {
				t.Fatalf("reset state shape differs from cold state")
			}
			if len(pooled.edges.routes) != 0 || len(pooled.edges.legs) != 0 ||
				len(pooled.edges.chunks) != 0 {
				t.Fatalf("arena residue after reset: %d routes, %d legs, %d chunks",
					len(pooled.edges.routes), len(pooled.edges.legs), len(pooled.edges.chunks))
			}
			if d := fresh.captureFingerprint().diff(pooled); d != "" {
				t.Fatalf("request N residue visible to request N+1: %s", d)
			}

			// The ground truth: the reused state schedules the small
			// graph bit-identically to the cold state.
			got, err := scheduleOn(pooled, "x")
			if err != nil {
				t.Fatal(err)
			}
			want, err := scheduleOn(fresh, "x")
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffSchedules(want, got); d != "" {
				t.Fatalf("pooled state's schedule diverged from cold: %s", d)
			}
		})
	}
}

// TestResetForJournalSizes pins that reset resizes the reusable
// transaction journals to the new graph's census — otherwise the first
// probe of the next request would trip begin's size-drift panic (or
// worse, index out of bounds).
func TestResetForJournalSizes(t *testing.T) {
	net := network.Star(4, network.Uniform(1), network.Uniform(1))
	opts := Options{ProcSelect: ProcSelectEFT}
	s, err := coldState(hygieneGraph(11, 30), net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scheduleOn(s, "x"); err != nil {
		t.Fatal(err)
	}
	if s.txFree == nil {
		t.Fatal("schedule run left no reusable journal")
	}
	s.tasks, s.dups, s.g = nil, nil, nil
	g2 := hygieneGraph(12, 50) // larger: journals must grow
	s.resetFor(g2)
	s.checkJournalSizes(s.txFree) // panics on drift
	if _, err := scheduleOn(s, "x"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineOverload pins the fail-fast admission path without racing:
// with one worker slot occupied and one request already waiting, the
// next acquire must return ErrOverloaded immediately.
func TestEngineOverload(t *testing.T) {
	net := network.Star(3, network.Uniform(1), network.Uniform(1))
	e, err := NewEngine(net, EngineOptions{Opts: Options{}, MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.sem <- struct{}{} // occupy the only worker slot
	waiterDone := make(chan error, 1)
	go func() { waiterDone <- e.acquire() }() // fills the queue
	for e.waiting.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := e.acquire(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue: %v, want ErrOverloaded", err)
	}
	<-e.sem // free the slot; the waiter acquires it
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	e.release()
	if got := e.active.Load(); got != 0 {
		t.Fatalf("active count after release: %d", got)
	}
}
