// Fixture for the detfold analyzer: folds over nondeterministically
// ordered sources — map iteration, channel receives, select clauses —
// must compare through fptime and break epsilon-ties on a total ID
// order; edgelint:detfold-marked folds may not compare floats bare.
package a

import "repro/internal/fptime"

type result struct {
	ID     int
	Finish float64
}

// mapReduce folds over map iteration order.
func mapReduce(m map[int]float64) float64 {
	var sum float64
	best := 0.0
	bestID := -1
	for id, v := range m {
		sum += v // want "order-dependent float accumulation into sum in a map iteration"

		if v < best { // want "selection of best in a map iteration compares floats bare"
			best = v
		}

		// Epsilon comparison plus integer tie-break: conforming.
		if fptime.LessEps(v, best) || (fptime.EqEps(v, best) && id < bestID) {
			best = v
			bestID = id
		}

		if fptime.LessEps(v, best) { // want "selection of best in a map iteration is lacking a tie-break"
			best = v
		}
	}
	return sum + best + float64(bestID)
}

// chanMerge selects by bare comparison on arrival order.
func chanMerge(ch chan result) result {
	var best result
	for r := range ch {
		if r.Finish < best.Finish { // want "selection of best in a channel merge compares floats bare"
			best = r
		}
	}
	return best
}

// chanMergeTieBreak is the conforming shape of the same merge.
func chanMergeTieBreak(ch chan result) result {
	var best result
	bestID := -1
	for r := range ch {
		if fptime.LessEps(r.Finish, best.Finish) ||
			(fptime.EqEps(r.Finish, best.Finish) && r.ID < bestID) {
			best, bestID = r, r.ID
		}
	}
	return best
}

// chanOpaque hides the ordering decision behind an unmarked helper:
// nothing establishes a deterministic order.
func chanOpaque(ch chan result, better func(a, b result) bool) result {
	var best result
	for r := range ch {
		if better(r, best) { // want "selection of best in a channel merge does not establish a deterministic order"
			best = r
		}
	}
	return best
}

// indexedGather writes each arrival into its ID-addressed slot: the
// final state is independent of arrival order, nothing to flag.
func indexedGather(ch chan result, out []float64) {
	for r := range ch {
		out[r.ID] = r.Finish
	}
}

// selectMerge merges two channels through select clauses.
func selectMerge(a, b chan result) result {
	var best result
	var total float64
	for i := 0; i < 4; i++ {
		select {
		case r := <-a:
			total += r.Finish           // want "order-dependent float accumulation into total in a select merge"
			if r.Finish < best.Finish { // want "selection of best in a select merge compares floats bare"
				best = r
			}
		case r := <-b:
			if fptime.LessEps(r.Finish, best.Finish) { // want "selection of best in a select merge is lacking a tie-break"
				best = r
			}
		}
	}
	_ = total
	return best
}

// nonFloatMerge: selections that carry no floating-point state are out
// of scope (deduplication, error capture, counters).
func nonFloatMerge(ch chan error) error {
	var first error
	n := 0
	for err := range ch {
		n++
		if err != nil && first == nil {
			first = err
		}
	}
	_ = n
	return first
}

// selectBest is the canonical conforming fold over an ID-ordered slice:
// strict LessEps with first-wins scanning breaks ties to the lowest ID.
// edgelint:detfold
func selectBest(finish []float64) int {
	best := -1
	for id, f := range finish {
		if best < 0 || fptime.LessEps(f, finish[best]) {
			best = id
		}
	}
	return best
}

// badFold carries the mark but compares bare: inside a detfold fold
// every float ordering comparison must go through fptime.
// edgelint:detfold
func badFold(finish []float64) int {
	best := 0
	for id, f := range finish {
		if f < finish[best] { // want "bare float comparison in detfold-marked fold badFold"
			best = id
		}
	}
	return best
}

// annotated shows the escape hatch for a provably order-free reduce.
func annotated(m map[int]int) int {
	total := 0
	votes := 0.0
	for _, v := range m {
		total += v   // integer accumulation is exact: out of scope
		votes += 1.0 // edgelint:ignore detfold — fixture: counting arrivals, every order sums identically
	}
	_ = votes
	return total
}
