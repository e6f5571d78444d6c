package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/linksched"
	"repro/internal/network"
)

// This file implements the long-lived scheduling engine: one immutable
// topology loaded once, many Schedule(dag) calls served concurrently.
// A one-shot ListScheduler.Schedule rebuilds its world per call — a
// fresh route cache (so BFS route work is re-done every run), fresh
// timeline columns, fresh journals, a fresh router. The engine splits
// that world by mutability instead:
//
//   - shared immutable: the Topology, the Options and the warmed
//     RouteCache. The topology is frozen after construction (analyzer
//     enforced), routes are pure functions of it, and the cache is
//     concurrency-safe and sharded, so every request may read them at
//     once.
//   - pooled mutable: the per-request scheduler state (timeline
//     columns, columnar edge arenas, transaction journals, router
//     scratch, fork replicas). Drawn from a sync.Pool and fully reset
//     between requests (resetFor), so steady-state requests reuse the
//     arena capacity of their predecessors instead of reallocating it.
//   - per request: the task placements and the materialized Schedule,
//     which escape to the caller and are always freshly allocated.
//
// Determinism is unchanged: a state never crosses goroutines while in
// use, the shared cache only memoizes pure functions, and the fold
// rules of parallel probing are untouched — so every engine schedule
// is bit-identical to a cold single-threaded run. SelfCheckEvery turns
// that claim into a runtime oracle.

// ErrEngineClosed is returned by Schedule after Drain (or Close) has
// begun: the engine finishes in-flight requests but admits no new ones.
var ErrEngineClosed = errors.New("sched: engine draining")

// ErrOverloaded is returned when admission control rejects a request
// because MaxQueue requests are already waiting for a worker slot.
var ErrOverloaded = errors.New("sched: engine overloaded")

// EngineOptions configures a scheduling engine.
type EngineOptions struct {
	// Name is the display name stamped on produced schedules. Empty
	// defaults to "engine".
	Name string
	// Opts selects the scheduling policies, exactly as for NewCustom.
	// Opts.ProbeWorkers applies per request; under concurrent load keep
	// it at 1 and let concurrency come from the requests themselves.
	Opts Options
	// MaxConcurrent bounds the requests scheduled simultaneously (the
	// worker pool). 0 uses GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a worker slot
	// before Schedule fails fast with ErrOverloaded. 0 means unbounded
	// waiting (backpressure by blocking).
	MaxQueue int
	// WarmRoutes precomputes the BFS route of every ordered processor
	// pair at construction, so even the first requests hit the cache.
	// Skipped (routes warm on demand) when the pair count exceeds the
	// cache capacity — warming would only evict itself.
	WarmRoutes bool
	// SelfCheckEvery, when N > 0, re-runs every Nth request through the
	// one-shot path (NewCustom(...).Schedule with ProbeWorkers 1) and
	// fails the request if the engine's schedule is not bit-identical.
	// The determinism oracle for serving: leave it on at a generous N
	// in production, or 1 in tests.
	SelfCheckEvery int
}

// EngineStats is a snapshot of the engine's counters.
type EngineStats struct {
	Requests  int64 // admitted requests (incl. failures)
	Failures  int64 // requests that returned an error
	Rejected  int64 // requests refused by admission control
	InFlight  int64 // requests currently holding a worker slot
	ColdState int64 // requests that built a state instead of pooling one

	SelfChecks int64 // cold re-runs performed by the determinism oracle

	CacheHits       int64   // shared route cache hits
	CacheMisses     int64   // shared route cache misses
	CacheHitRate    float64 // hits / (hits+misses), 0 before any lookup
	CacheLen        int     // cached routes
	CacheShards     int     // lock shards
	CacheContention int64   // lock acquisitions that had to wait
}

// Engine is a long-lived, concurrency-safe scheduling engine: it loads
// one immutable Topology plus one policy set and serves many
// Schedule(dag) calls in parallel against a shared warmed route cache
// and a pool of reusable scheduler states. See the file comment for
// the sharing discipline. Create with NewEngine; Drain before
// discarding if callers may still be scheduling.
type Engine struct {
	name  string
	opts  Options
	net   *network.Topology
	cache *network.RouteCache

	maxConcurrent int
	maxQueue      int
	sem           chan struct{} // worker slots
	waiting       atomic.Int64  // requests blocked on sem

	mu       sync.RWMutex // guards closed vs inflight.Add
	closed   bool
	inflight sync.WaitGroup

	pool sync.Pool // *state, all built against net+opts+cache

	selfCheckEvery int

	requests   atomic.Int64
	failures   atomic.Int64
	rejected   atomic.Int64
	active     atomic.Int64
	coldStates atomic.Int64
	selfChecks atomic.Int64
	reqSeq     atomic.Uint64
}

// NewEngine validates the topology and the options once and builds an
// engine serving the given policies against it. The topology must not
// be mutated for the engine's lifetime (the frozen-after-construction
// contract all schedulers already rely on).
//
// The shared route cache covers every ordered processor pair, clamped
// to [DefaultRouteCacheSize, 1<<22], over a power of two of lock
// shards near 4×MaxConcurrent (at most 256), so concurrent lookups of
// distinct pairs rarely share a mutex.
func NewEngine(net *network.Topology, eo EngineOptions) (*Engine, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := eo.Opts.validate(); err != nil {
		return nil, err
	}
	if eo.SelfCheckEvery < 0 {
		return nil, fmt.Errorf("sched: negative SelfCheckEvery %d", eo.SelfCheckEvery)
	}
	name := eo.Name
	if name == "" {
		name = "engine"
	}
	workers := eo.MaxConcurrent
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	procs := net.NumProcessors()
	pairs := procs * (procs - 1)
	size := min(max(pairs, network.DefaultRouteCacheSize), 1<<22)
	shards := min(4*workers, 256)
	e := &Engine{
		name:           name,
		opts:           eo.Opts,
		net:            net,
		cache:          network.NewShardedRouteCache(size, shards),
		maxConcurrent:  workers,
		maxQueue:       eo.MaxQueue,
		sem:            make(chan struct{}, workers),
		selfCheckEvery: eo.SelfCheckEvery,
	}
	if eo.WarmRoutes && pairs <= size {
		e.warmRoutes()
	}
	return e, nil
}

// warmRoutes fills the shared cache with the BFS route of every
// ordered processor pair. Routes are pure functions of the topology,
// so warming changes nothing but first-request latency.
func (e *Engine) warmRoutes() {
	r := e.net.NewRouter(e.cache)
	procs := e.net.Processors()
	for _, src := range procs {
		for _, dst := range procs {
			if src != dst {
				// edgelint:ignore errflow — warming is best-effort; an
				// unroutable pair caches its error and requests that
				// need the pair will surface it.
				_, _ = r.BFSRoute(src, dst)
			}
		}
	}
}

// Name returns the display name stamped on produced schedules.
func (e *Engine) Name() string { return e.name }

// Schedule maps every task of g onto a processor and every
// inter-processor edge onto a route of links, exactly as the matching
// one-shot scheduler would, and returns the complete schedule. Safe
// for concurrent use; requests beyond MaxConcurrent wait their turn
// (or fail fast with ErrOverloaded once MaxQueue are already waiting).
// After Drain it fails with ErrEngineClosed.
func (e *Engine) Schedule(g *dag.Graph) (*Schedule, error) {
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.inflight.Done()
	if err := e.acquire(); err != nil {
		e.rejected.Add(1)
		return nil, err
	}
	defer e.release()
	return e.run(g)
}

// begin gates admission on the drain flag and registers the request
// in-flight. The RWMutex pairs the closed check with inflight.Add so
// Drain's Wait cannot race a late Add.
func (e *Engine) begin() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.inflight.Add(1)
	return nil
}

// acquire takes a worker slot, failing fast when the waiting line
// exceeds MaxQueue.
func (e *Engine) acquire() error {
	select {
	case e.sem <- struct{}{}:
	default:
		if e.maxQueue > 0 && e.waiting.Load() >= int64(e.maxQueue) {
			return ErrOverloaded
		}
		e.waiting.Add(1)
		e.sem <- struct{}{}
		e.waiting.Add(-1)
	}
	e.active.Add(1)
	return nil
}

func (e *Engine) release() {
	e.active.Add(-1)
	<-e.sem
}

// run schedules one graph: get a pooled (or freshly built) state,
// scheduleOn, put it back, and every SelfCheckEvery'th request
// re-derive the schedule through the one-shot path.
func (e *Engine) run(g *dag.Graph) (*Schedule, error) {
	e.requests.Add(1)
	seq := e.reqSeq.Add(1)
	out, err := e.schedule(g)
	if n := e.selfCheckEvery; err == nil && n > 0 && seq%uint64(n) == 0 {
		err = e.selfCheck(g, out)
	}
	if err != nil {
		e.failures.Add(1)
		return nil, err
	}
	return out, nil
}

// schedule validates g and runs it on a state drawn from the pool
// (re-targeted by resetFor) or, when the pool is empty, built by
// newState against the engine's topology, options and shared cache.
func (e *Engine) schedule(g *dag.Graph) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var s *state
	if v := e.pool.Get(); v != nil {
		s = v.(*state)
		s.resetFor(g)
	} else {
		e.coldStates.Add(1)
		s = newState(g, e.net, e.opts, e.cache)
	}
	out, err := scheduleOn(s, e.name)
	e.put(s)
	return out, err
}

// put returns a state to the pool. The task and duplicate columns
// escaped into the returned Schedule and the graph belongs to the
// caller, so they are dropped here; everything else — timeline slabs,
// edge arenas, journals, router scratch, closure caches — retains its
// capacity for the next request.
func (e *Engine) put(s *state) {
	if s.tx != nil {
		return // a state stuck in a transaction is corrupt; drop it
	}
	s.g = nil
	s.tasks = nil
	s.dups = nil
	e.pool.Put(s)
}

// selfCheck re-runs the request through the one-shot path — the
// scheduler NewCustom builds, sequential probes, private route cache —
// and fails if the engine's schedule is not bit-identical. This is the
// serving-path twin of the rollback oracle: it turns "pooling and
// sharing change nothing" into a checked runtime contract.
func (e *Engine) selfCheck(g *dag.Graph, got *Schedule) error {
	e.selfChecks.Add(1)
	opts := e.opts
	opts.ProbeWorkers = 1
	want, err := NewCustom(e.name, opts).Schedule(g, e.net)
	if err != nil {
		return fmt.Errorf("sched: engine self-check run: %w", err)
	}
	if d := DiffSchedules(want, got); d != "" {
		return fmt.Errorf("sched: engine schedule diverged from cold run: %s", d)
	}
	return nil
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() EngineStats {
	hits, misses := e.cache.Stats()
	st := EngineStats{
		Requests:        e.requests.Load(),
		Failures:        e.failures.Load(),
		Rejected:        e.rejected.Load(),
		InFlight:        e.active.Load(),
		ColdState:       e.coldStates.Load(),
		SelfChecks:      e.selfChecks.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		CacheHitRate:    e.cache.HitRate(),
		CacheLen:        e.cache.Len(),
		CacheShards:     e.cache.NumShards(),
		CacheContention: e.cache.Contention(),
	}
	return st
}

// Drain stops admitting new requests and blocks until every in-flight
// request has finished. Idempotent; Schedule returns ErrEngineClosed
// afterwards (and immediately on concurrent calls that lose the race).
func (e *Engine) Drain() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
}

// resetFor re-targets a state at a new graph against the state's
// existing topology and options: the graph-shaped half of newState and
// the whole of the engine pool's reuse. Everything request-visible is
// rewound to the cold-start value (timelines emptied with their
// pruning bounds, arenas truncated, journals resized with their epochs
// intact, processor clocks zeroed), while every backing capacity is
// retained. The task and duplicate columns are rebuilt fresh because
// the previous request's Schedule owns the old ones. The cached
// relaxFn/slackFn closures survive: they capture only s itself, whose
// options and topology do not change inside one engine.
func (s *state) resetFor(g *dag.Graph) {
	if s.tx != nil {
		panic("sched: resetFor inside a transaction")
	}
	s.g = g
	linksched.ResetTimelines(s.tl)
	linksched.ResetBWTimelines(s.bw)
	linksched.ResetTimelines(s.ptl)
	clear(s.procFinish)
	s.tasks = make([]TaskPlacement, g.NumTasks())
	for i := range s.tasks {
		s.tasks[i] = TaskPlacement{Task: dag.TaskID(i), Proc: -1}
	}
	s.dups = nil
	s.edges.init(g.NumEdges())
	s.txSeq = 0
	s.sizeJournals()
	s.stats.probes.Store(0)
	s.stats.pruned.Store(0)
	s.forks = s.forks[:0]
	s.forkErrs = s.forkErrs[:0]
}
