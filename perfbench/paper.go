package main

import (
	"math/rand"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/workload"
)

// The paper-sweep instance set: every cell of CCR × processors ×
// {homogeneous, heterogeneous} holds one §6 instance per task-count
// stratum of U(40,1000). The task counts are the midpoints of equal
// slices of that range, the same for every seed; the seed draws each
// graph's shape and costs and each cluster. Fixed sizes keep a run's
// figures from swinging with how large a seed's graphs happen to be.
var (
	paperCCRs  = []float64{0.5, 2, 8}
	paperProcs = []int{8, 32, 64}
)

const (
	paperStrata = 6
	// tailPasses is how many of each call's fastest passes the p99
	// reads: 4 passes of 324 calls give 1296 samples, more than the
	// 1010 that leave minTail beyond it.
	tailPasses = 4
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 25
	// p99Samples is the fewest samples whose p99 has minTail beyond it.
	p99Samples = 1000
	// wallCap stops a measuring loop that cannot reach its sample count,
	// so a run on a slow host still ends well within its time limit.
	wallCap = 100 * time.Second
)

func paperInstances(seed int64) []workload.Instance {
	r := rand.New(rand.NewSource(seed))
	cells := len(paperCCRs) * len(paperProcs) * 2
	slice := float64(1000-40+1) / float64(cells*paperStrata)
	var out []workload.Instance
	for s := 0; s < paperStrata; s++ {
		c := 0
		for _, ccr := range paperCCRs {
			for _, procs := range paperProcs {
				for _, het := range []bool{false, true} {
					tasks := 40 + int((float64(s*cells+c)+0.5)*slice)
					out = append(out, workload.Generate(workload.Params{
						Processors: procs, CCR: ccr, Heterogeneous: het,
						MinTasks: tasks, MaxTasks: tasks, Seed: r.Int63(),
					}))
					c++
				}
			}
		}
	}
	return out
}

// paperAlgos are the three algorithms the paper compares, BA first.
func paperAlgos() []*sched.ListScheduler {
	return []*sched.ListScheduler{sched.NewBA(), sched.NewOIHSA(), sched.NewBBSA()}
}

// sweep runs passes of one-shot Schedule calls over the instance set.
// Only the Schedule call is timed; verification and bookkeeping run
// between calls, labelled untimed for the profile.
type sweep struct {
	rep      *report
	insts    []workload.Instance
	algos    []*sched.ListScheduler
	makespan [][]float64 // [instance][algo], from the first pass

	// Reset per measuring phase.
	lat    []float64   // ms, every call
	byAlgo [][]float64 // ms, per algorithm
	byCall [][]float64 // ms, per instance × algorithm, one per pass
	timed  time.Duration
	verify time.Duration
	shapes shapeStats
	allocs allocMeter
	traced bool
}

func (s *sweep) reset(traced bool) {
	s.lat, s.byAlgo = nil, make([][]float64, len(s.algos))
	s.byCall = make([][]float64, len(s.insts)*len(s.algos))
	s.timed, s.verify = 0, 0
	s.shapes, s.allocs = shapeStats{}, allocMeter{}
	s.traced = traced
}

func (s *sweep) pass() {
	for i, in := range s.insts {
		for a, alg := range s.algos {
			if s.traced {
				s.allocs.before()
			}
			t0 := time.Now()
			sc, err := alg.Schedule(in.Graph, in.Net)
			d := time.Since(t0)
			if s.traced {
				s.allocs.after()
			}
			s.timed += d
			s.lat = append(s.lat, ms(d))
			s.byAlgo[a] = append(s.byAlgo[a], ms(d))
			c := i*len(s.algos) + a
			s.byCall[c] = append(s.byCall[c], ms(d))
			untimed(func() { s.check(i, a, sc, err) })
		}
	}
}

// check is the correctness gate: every schedule passes verify.Verify
// and repeats the first pass's makespan exactly.
func (s *sweep) check(inst, algo int, sc *sched.Schedule, err error) {
	s.rep.attempted++
	name := s.algos[algo].Name()
	if err != nil {
		s.rep.failed++
		s.rep.problem("%s on instance %d: %v", name, inst, err)
		return
	}
	t0 := time.Now()
	res := verify.Verify(sc)
	s.verify += time.Since(t0)
	if !res.OK() {
		s.rep.failed++
		s.rep.problem("%s on instance %d failed verification: %v", name, inst, res.Err())
		return
	}
	if want := s.makespan[inst][algo]; want == 0 {
		s.makespan[inst][algo] = sc.Makespan
	} else if sc.Makespan != want {
		s.rep.failed++
		s.rep.problem("%s on instance %d: makespan %v, first pass %v", name, inst, sc.Makespan, want)
		return
	}
	if s.traced {
		s.shapes.add(sc)
	}
}

// measure runs whole passes until the timed calls add up to d and at
// least minPasses passes were made.
func (s *sweep) measure(d time.Duration, minPasses int) {
	start := time.Now()
	for s.timed < d || len(s.byCall[0]) < minPasses {
		if len(s.lat) > 0 && time.Since(start) > wallCap {
			return
		}
		s.pass()
	}
}

// fastest returns each call's k fastest times. A call is
// deterministic, so anything slower is host noise, which this host has
// in bursts of a second or more: throughput and the median read each
// call's fastest pass, as the repository's min ns/op snapshots do, and
// the p99 reads its tailPasses fastest, which supply the samples beyond
// it.
func (s *sweep) fastest(k int) []float64 {
	var out []float64
	for _, c := range s.byCall {
		c = slices.Clone(c)
		slices.Sort(c)
		out = append(out, c[:min(k, len(c))]...)
	}
	return out
}

// throughput is the rate at which one pass's calls complete, each
// timed by its fastest pass.
func (s *sweep) throughput() float64 { return 1000 / mean(s.fastest(1)) }

func runPaperSweep(cfg config) (*report, error) {
	rep := newReport()
	var insts []workload.Instance
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		insts = paperInstances(cfg.seed)
		setups[i] = time.Since(t0).Seconds()
	}
	rep.values["setup_s"] = median(setups)

	s := &sweep{rep: rep, insts: insts, algos: paperAlgos(), makespan: make([][]float64, len(insts))}
	for i := range s.makespan {
		s.makespan[i] = make([]float64, len(s.algos))
	}
	var t timings
	if !cfg.trace {
		s.reset(false)
		s.measure(cfg.seconds, tailPasses)
		rep.values["throughput_sps"] = s.throughput()
		rep.values["latency_p50_ms"] = t.pct(s.fastest(1), 0.5)
		rep.values["latency_p99_ms"] = t.pct(s.fastest(tailPasses), 0.99)
		rss, err := statusMB(strconv.Itoa(os.Getpid()), "VmHWM")
		if err != nil {
			return nil, err
		}
		rep.values["peak_rss_mb"] = rss
		return rep, t.err
	}

	// Traced run: after a warm-up pass, an untraced half gives the
	// overhead baseline and the other half runs under the CPU profiler
	// with per-call counters. Equal halves give both the same number of
	// passes to take each call's fastest from.
	s.reset(false)
	s.pass()
	s.reset(false)
	s.measure(cfg.seconds/2, 1)
	plain := s.throughput()
	s.reset(true)
	var prof cpuProfile
	if err := prof.start(); err != nil {
		return nil, err
	}
	s.measure(cfg.seconds/2, 1)
	samples, err := prof.stop()
	if err != nil {
		return nil, err
	}
	traced := s.throughput()
	v := rep.values
	addShares(v, samples)
	s.shapes.report(v)
	s.allocs.report(v, len(s.lat))
	v["sched.ba_ms_p50"] = t.pct(s.byAlgo[0], 0.5)
	v["sched.oihsa_ms_p50"] = t.pct(s.byAlgo[1], 0.5)
	v["sched.bbsa_ms_p50"] = t.pct(s.byAlgo[2], 0.5)
	v["verify.ms_per_sched"] = ms(s.verify) / float64(len(s.lat))
	v["bench.trace_overhead_pct"] = 100 * (plain - traced) / plain
	v["quality.oihsa_vs_ba_makespan_pct"], v["quality.bbsa_vs_ba_makespan_pct"] = makespanRatios(s.makespan)
	return rep, t.err
}

// makespanRatios returns the paper-style comparison over the instance
// set: the mean of 100·OIHSA/BA and of 100·BBSA/BA. Below 100 means
// the paper's algorithm beat BA.
func makespanRatios(m [][]float64) (oihsa, bbsa float64) {
	var o, b []float64
	for _, row := range m {
		o = append(o, 100*row[1]/row[0])
		b = append(b, 100*row[2]/row[0])
	}
	return mean(o), mean(b)
}

// addShares charges the profile to layers (see cpuShares).
func addShares(v map[string]float64, samples []sample) {
	for l, share := range cpuShares(samples) {
		if l == runtimeLayer {
			v["runtime.gc_cpu_share"] = share
		} else {
			v[l+".cpu_share"] = share
		}
	}
}

// shapeStats measures the work a schedule implies for the routing and
// link layers: hops per routed edge and slots per used link.
type shapeStats struct {
	routed, hops       int
	links, slots, maxS int
}

func (st *shapeStats) add(s *sched.Schedule) {
	perLink := map[network.LinkID]int{}
	for _, es := range s.Edges {
		if es == nil {
			continue
		}
		st.routed++
		st.hops += len(es.Route)
		for _, p := range es.Placements {
			perLink[p.Link]++
		}
	}
	for _, n := range perLink {
		st.links++
		st.slots += n
		st.maxS = max(st.maxS, n)
	}
}

func (st *shapeStats) report(v map[string]float64) {
	if st.routed > 0 {
		v["network.route_hops_mean"] = float64(st.hops) / float64(st.routed)
	}
	if st.links > 0 {
		v["linksched.slots_per_link_mean"] = float64(st.slots) / float64(st.links)
	}
	v["linksched.slots_per_link_max"] = float64(st.maxS)
}

// allocMeter sums heap allocation across the timed calls only, read
// from runtime/metrics, which needs no stop-the-world.
type allocMeter struct {
	s            [2]metrics.Sample
	bytes, count uint64
}

func (m *allocMeter) read() (uint64, uint64) {
	m.s[0].Name, m.s[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

func (m *allocMeter) before() {
	b, c := m.read()
	m.bytes -= b
	m.count -= c
}

func (m *allocMeter) after() {
	b, c := m.read()
	m.bytes += b
	m.count += c
}

func (m *allocMeter) report(v map[string]float64, calls int) {
	if calls == 0 {
		return
	}
	v["runtime.alloc_kb_per_sched"] = float64(m.bytes) / 1024 / float64(calls)
	v["runtime.mallocs_per_sched"] = float64(m.count) / float64(calls)
}
