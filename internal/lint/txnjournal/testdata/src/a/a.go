// Fixture for the txnjournal analyzer: a miniature of the scheduler's
// transactional state with journaled fields, journal primitives, and a
// placeTask root. Stores reachable from placeTask must be dominated by
// the matching journal call.
package a

type TaskID int
type NodeID int
type EdgeID int
type LinkID int

type Timeline struct{ slots []float64 }

func (t *Timeline) InsertBasic(x float64) float64        { return x }
func (t *Timeline) ProbeBasic(x float64) float64         { return x }
func (t *Timeline) Snapshot() []float64                  { return nil }
func (t *Timeline) SnapshotInto(old []float64) []float64 { return nil }
func (t *Timeline) Reindex(pos int)                      {}

type EdgeSchedule struct {
	Start, Finish float64
	Placements    []float64
}

type state struct {
	tasks      []float64
	procFinish []float64
	edges      []*EdgeSchedule
	tl         []*Timeline
	bw         []*Timeline
	ptl        []*Timeline
	dups       []float64
	scratch    []float64 // not journaled
}

func (s *state) touchTask(id TaskID)         {}
func (s *state) touchProc(id NodeID)         {}
func (s *state) touchEdge(id EdgeID)         {}
func (s *state) touchTimeline(id LinkID)     {}
func (s *state) touchBWTimeline(id LinkID)   {}
func (s *state) touchProcTimeline(id NodeID) {}
func (s *state) touchDup()                   {}
func (s *state) cowEdge(id EdgeID) *EdgeSchedule {
	return s.edges[id]
}

func (s *state) placeTask(tid TaskID, proc NodeID, cond bool) {
	// Inter-procedural: interHelper's store is a summary requirement.
	// This bare call (before any touchTask) leaves it unsatisfied; the
	// journaled path through journalThenCall satisfies it.
	s.interHelper(tid)
	s.journalThenCall(tid)
	s.mid() // two-level propagation: mid -> deepStore

	// Dominated store: journal call precedes at the same nesting level.
	s.touchTask(tid)
	s.tasks[tid] = 1

	// Journal at outer level dominates a store in a nested branch.
	s.touchProc(proc)
	if cond {
		s.procFinish[proc] = 2
	}

	// Un-journaled store (no touchEdge anywhere before).
	s.edges[0] = nil // want "store to journaled field state.edges is not dominated"

	// Journal in one branch does not dominate a store after the if.
	if cond {
		s.touchTimeline(0)
	}
	s.tl[0].InsertBasic(1) // want "mutating call InsertBasic on journaled field state.tl is not dominated"

	// Read-only calls need no journal.
	_ = s.tl[0].ProbeBasic(1)
	_ = s.tl[0].Snapshot()

	// Non-journaled fields need no journal.
	s.scratch = append(s.scratch, 1)

	// Store textually before its journal call inside a loop: the first
	// iteration runs un-journaled.
	for i := 0; i < 2; i++ {
		s.dups = append(s.dups, 1) // want "journaled field state.dups is not dominated"
		s.touchDup()
	}

	s.helper(proc)
	s.aliasing(0)
	s.cowPattern(0)
	s.elseBranch(cond)
	s.indexMaintenance(cond)
	s.bwIndexMaintenance(cond)
	s.ignored(proc)
}

// indexMaintenance mirrors the gap-indexed timeline: the block-summary
// index is journaled state like the slots, so rebuilding it is a
// mutation that needs the same touchTimeline dominance — while the
// buffer-reusing SnapshotInto keeps the read-only Snapshot prefix and
// needs none.
func (s *state) indexMaintenance(cond bool) {
	if cond {
		s.touchTimeline(1)
		s.tl[1].Reindex(1)
	} else {
		s.tl[1].Reindex(2) // want "mutating call Reindex on journaled field state.tl is not dominated"
	}
	_ = s.tl[1].SnapshotInto(nil)
}

// bwIndexMaintenance mirrors the chunked bandwidth ledger: its slab
// summaries (max avail, max gap, end spacing) are journaled state
// exactly like the segments they index, so rebuilding them needs
// touchBWTimeline dominance — the bandwidth analogue of the Timeline's
// Reindex case above. Probe-only estimates stay read-only.
func (s *state) bwIndexMaintenance(cond bool) {
	if cond {
		s.touchBWTimeline(2)
		s.bw[2].Reindex(1)
	} else {
		s.bw[2].Reindex(2) // want "mutating call Reindex on journaled field state.bw is not dominated"
	}
	_ = s.bw[2].ProbeBasic(3)
	_ = s.bw[2].SnapshotInto(nil)
}

// helper is reachable from placeTask: its stores are checked.
func (s *state) helper(proc NodeID) {
	s.touchProc(proc)
	s.procFinish[proc] = 3
	s.ptl[proc].InsertBasic(4) // want "mutating call InsertBasic on journaled field state.ptl is not dominated"
}

// aliasing mutates through a pointer read straight off the live edges
// slice: rollback restores the slice entry, not the pointee.
func (s *state) aliasing(id EdgeID) {
	s.touchEdge(id)
	es := s.edges[id]
	es.Start = 5 // want "store through \\*EdgeSchedule aliasing state.edges"
}

// cowPattern obtains the schedule from cowEdge, which journals and
// clones; mutating the clone is safe.
func (s *state) cowPattern(id EdgeID) {
	es := s.edges[id]
	es = s.cowEdge(id)
	es.Start = 6
	fresh := &EdgeSchedule{}
	fresh.Finish = 7 // fresh allocation: not yet reachable from state
}

// elseBranch journals in the then-arm only: the else-arm store is not
// dominated.
func (s *state) elseBranch(cond bool) {
	if cond {
		s.touchBWTimeline(0)
		s.bw[0].InsertBasic(8)
	} else {
		s.bw[0].InsertBasic(9) // want "mutating call InsertBasic on journaled field state.bw is not dominated"
	}
}

// ignored demonstrates the escape hatch.
func (s *state) ignored(proc NodeID) {
	s.procFinish[proc] = 10 // edgelint:ignore txnjournal — fixture: deliberate un-journaled store
}

// interHelper stores without journaling: the store becomes a summary
// requirement its callers must satisfy. placeTask reaches it both bare
// (reported, anchored here at the store) and through journalThenCall
// (satisfied at that call site).
func (s *state) interHelper(id TaskID) {
	s.tasks[id] = 12 // want "store to journaled field state.tasks is not dominated"
}

// journalThenCall satisfies interHelper's requirement at the call
// site: the journal dominates the call, hence the callee's store.
func (s *state) journalThenCall(id TaskID) {
	s.touchTask(id)
	s.interHelper(id)
}

// deepStore's requirement propagates two levels, through mid, up to
// placeTask — which never journals dups outside the earlier loop.
func (s *state) deepStore() {
	s.dups = append(s.dups, 2) // want "journaled field state.dups is not dominated"
}

func (s *state) mid() {
	s.deepStore()
}

// unreachable is never called from placeTask: its stores are out of
// the transactional call graph and not checked.
func (s *state) unreachable() {
	s.tasks[0] = 11
	s.edges[0] = nil
}
