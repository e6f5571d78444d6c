package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending, so the helper must sort
	}
	v, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if v != 990 || beyond != minTail {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with %d", v, beyond, minTail)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("a median of 19 samples has 9 beyond it and must be refused")
	}
	if m, err := percentile(xs[:21], 0.5); err != nil || m != 990 {
		t.Fatalf("median of 980..1000 = %v, %v; want 990", m, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestCPUSharesChargeInnermostLayerFrame(t *testing.T) {
	samples := []sample{
		// Allocation inside the router is routing's cost.
		{frames: []string{"runtime.mallocgc", "repro/internal/network.(*Router).DijkstraRoute",
			"repro/internal/sched.(*state).findRoute", "main.main"}, value: 40},
		// The relax closure is sched's code even though network calls it.
		{frames: []string{"repro/internal/sched.(*state).buildRelaxFn.func1",
			"repro/internal/network.(*Router).DijkstraRoute"}, value: 10},
		{frames: []string{"repro/internal/linksched.(*Timeline).InsertOptimal",
			"repro/internal/sched.scheduleOn"}, value: 30},
		// Packages that are not layers are skipped on the way out.
		{frames: []string{"repro/internal/workload.Generate",
			"repro/internal/dag.RandomLayered"}, value: 5},
		// No layer frame at all: GC and scheduler time.
		{frames: []string{"runtime.gcBgMarkWorker"}, value: 15},
		// The driver's own checks are left out entirely.
		{frames: []string{"repro/internal/verify.Verify"}, value: 1000,
			labels: map[string]string{"bench": untimedLabel}},
	}
	got := cpuShares(samples)
	want := map[string]float64{"network": 0.40, "sched": 0.10, "linksched": 0.30,
		"dag": 0.05, "runtime": 0.15, "graphio": 0, "verify": 0}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got[l], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares = %v, want exactly the layers %v", got, want)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileFindsSampledFunction(t *testing.T) {
	var p cpuProfile
	if err := p.start(); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	untimed(func() { spin(100 * time.Millisecond) })
	spin(300 * time.Millisecond)
	samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var labelled, plain int64
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample without CPU time: %+v", s)
		}
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				if s.labels["bench"] == untimedLabel {
					labelled += s.value
				} else {
					plain += s.value
				}
				break
			}
		}
	}
	if labelled == 0 || plain == 0 {
		t.Fatalf("spin samples: %d ns labelled untimed, %d ns unlabelled; want both > 0", labelled, plain)
	}
}

func TestCheckReplyRejectsMakespanMismatch(t *testing.T) {
	ok := []byte(`{"algorithm":"OIHSA","makespan":1234.5,"tasks":[],"edges_routed":0}`)
	if err := checkReply(http.StatusOK, ok, 1234.5); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   string
	}{
		"mismatch":   {http.StatusOK, `{"makespan":1234.500001}`},
		"no field":   {http.StatusOK, `{"algorithm":"OIHSA"}`},
		"bad json":   {http.StatusOK, `{"makespan":`},
		"overloaded": {http.StatusServiceUnavailable, `sched: engine overloaded`},
	} {
		if err := checkReply(c.status, []byte(c.body), 1234.5); err == nil {
			t.Errorf("%s: reply accepted", name)
		}
	}
}

// A server whose makespans differ from the one-shot reference must
// fail the run: every request counts as failed and the result reads
// incorrect.
func TestMismatchingServerFailsRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"makespan":99}`))
	}))
	defer srv.Close()
	sv := &served{bodies: [][]byte{[]byte(`{}`)}, small: []bool{true}, seq: []int{0}, want: []float64{100}}
	res := closedLoop(srv.Client(), srv.URL, sv, 50*time.Millisecond)
	if res.ok != 0 || res.failed == 0 || !strings.Contains(res.firstErr, "one-shot 100") {
		t.Fatalf("ok=%d failed=%d first=%q; want every request failed on the makespan", res.ok, res.failed, res.firstErr)
	}
	rep := newReport()
	rep.attempted, rep.failed = res.ok+res.failed, res.failed
	for _, d := range endToEnd {
		rep.values[d.name] = 1
	}
	out, err := rep.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != res.failed {
		t.Fatalf("result %+v: want incorrect with %d failed", out, res.failed)
	}
}

func TestSummarizeReadsTheCalmestSubWindow(t *testing.T) {
	var t0 timings
	// n samples 1 ms apart; those from slowFrom on are slowed by a stall.
	mk := func(n int, slowFrom float64) loadResult {
		var res loadResult
		for i := 0; i < n; i++ {
			lat := 1.0 + float64(i%100)/100
			if float64(i)/float64(n) >= slowFrom {
				lat += 50
			}
			res.samples = append(res.samples, reqSample{done: time.Duration(i+1) * time.Millisecond, ms: lat, small: true})
		}
		res.elapsed = time.Duration(n) * time.Millisecond
		return res
	}
	// Enough samples for five sub-windows: a stall over the last two
	// fifths leaves the figures untouched.
	f := summarize(mk(5*(p99Samples+p99Samples/10), 0.6), &t0)
	if f.p50 != 1.49 || f.p99 != 1.98 || f.smallP99 != 1.98 || math.Abs(f.tput-1000) > 1e-3 {
		t.Errorf("stall in two of five sub-windows moved the figures: %+v", f)
	}
	// Too few for two: the whole window is read, stall included.
	if f := summarize(mk(2*p99Samples, 0.97), &t0); f.p99 < 50 {
		t.Errorf("single window p99 = %v, want the stall's > 50", f.p99)
	}
	if t0.err != nil {
		t.Fatal(t0.err)
	}
}

func TestPaperInstancesShareSizesAcrossSeeds(t *testing.T) {
	a, b := paperInstances(1), paperInstances(7919)
	if _, err := percentile(make([]float64, tailPasses*len(a)*len(paperAlgos())), 0.99); err != nil {
		t.Fatalf("the p99 of each call's %d fastest passes: %v", tailPasses, err)
	}
	lo, hi := 1000, 40
	for i := range a {
		n := a[i].Graph.NumTasks()
		if n != b[i].Graph.NumTasks() {
			t.Fatalf("instance %d has %d tasks under seed 1, %d under 7919", i, n, b[i].Graph.NumTasks())
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo < 40 || lo > 45 || hi < 995 || hi > 1000 {
		t.Fatalf("task counts span %d..%d, want about 40..1000", lo, hi)
	}
}

func TestRSSPeakIsTheMedianStretchMaximum(t *testing.T) {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}),
		mb: []float64{10, 11, 30, 10, 12, 10, 11, 10, 10, 13}}
	close(s.done)
	// Stretches of two samples peak at 11, 30, 12, 11 and 13: the spike
	// to 30 moves its own stretch only.
	if got, err := s.peak(); err != nil || got != 12 {
		t.Fatalf("peak = %v, %v; want 12", got, err)
	}
	// Live sampling of this process stops when peak returns.
	live := sampleRSS(os.Getpid())
	time.Sleep(3 * rssEvery)
	if got, err := live.peak(); err != nil || got <= 0 {
		t.Fatalf("peak of this process = %v, %v", got, err)
	}
}

// The metric tables the driver prints must match BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: driver has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: driver %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver runs %d", len(spec.Workloads), len(workloads))
	}
}
