// Package xb imports xa and writes its immutable types: every write
// must be flagged via the imported facts, and xa's constructor
// allowance must not leak into this package.
package xb

import "xa"

func mutate(g *xa.Graph) {
	g.Tasks[0] = 9   // want "assignment to Graph, which is marked edgelint:immutable, outside its constructors \\(allowed writers: AddTask, NewGraph in xa\\)"
	g.Costs[3] = 1.5 // want "assignment to Graph"
	g.Tasks[0]++     // want "increment/decrement of Graph"
}

// AddTask shares a constructor's name, but the allowance is scoped to
// the declaring package: here it is just another illegal writer.
func AddTask(g *xa.Graph, id int) {
	g.Tasks = append(g.Tasks, id) // want "append through Graph" "assignment to Graph"
}

func stompRoute(r xa.Route) {
	r[0] = 7 // want "assignment to Route, which is marked edgelint:immutable, outside its constructors \\(no declared constructors\\)"
}

// build mutates graphs that are still under construction; freshness
// exempts them exactly as it does inside xa.
func build() *xa.Graph {
	g := xa.NewGraph()
	g.Tasks[0] = 1
	h := &xa.Graph{Costs: map[int]float64{}}
	h.Costs[0] = 2.5
	return h
}
