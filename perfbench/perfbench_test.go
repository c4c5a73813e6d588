package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/loadgen"
)

// tinyPlan shrinks a workload's plan to a seconds-long run that still
// crosses every phase: set-up twice, warmup, measured stream, write
// probe, merges and the post-write checks.
func tinyPlan(t *testing.T, name string) plan {
	t.Helper()
	p, ok := plans(1)[name]
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	p.docs, p.setupReps, p.pool, p.segments = 600, 2, 150, 2
	p.warmup, p.ops = 10, 200
	p.writes = 10
	p.checks, p.kernel, p.pipeline = 8, 6, 2
	return p
}

func tinyRun(t *testing.T, name string, trace bool, perturb func(stage string, n int, a *answer)) *result {
	t.Helper()
	cfg := &config{workload: name, seed: 7, trace: trace, plan: tinyPlan(t, name), perturb: perturb}
	res, env, err := measure(cfg, t.TempDir(), "test")
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: attempted %d", name, res.Attempted)
	}
	if res.Correct != (res.Failed == 0) {
		t.Fatalf("%s: correct=%v with %d failed", name, res.Correct, res.Failed)
	}
	if !res.Correct && perturb == nil {
		t.Fatalf("%s: %d of %d failed: %v", name, res.Failed, res.Attempted, env.Mismatches)
	}
	return res
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	sort.Strings(workloads)
	if !reflect.DeepEqual(workloads, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", workloads, workloadNames())
	}
	var e2e, layers []spec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, spec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layers, perLayer)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	pages, u, _, err := corpusPages(5, 600)
	if err != nil {
		t.Fatal(err)
	}
	again, _, _, err := corpusPages(5, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pageIDs(pages), pageIDs(again)) {
		t.Fatal("corpus differs between equal seeds")
	}
	if !reflect.DeepEqual(queryPool(u, 50, 3, 5), queryPool(u, 50, 3, 5)) {
		t.Fatal("query pool differs between equal seeds")
	}
	for _, name := range workloadNames() {
		p := plans(1)[name]
		p.pool = 50
		pool := queryPool(u, p.pool, p.segments, 5)
		seq := opSequence(5, 1, p, pool)
		if !reflect.DeepEqual(seq, opSequence(5, 1, p, pool)) {
			t.Fatalf("%s: query sequence differs between equal seeds", name)
		}
		if reflect.DeepEqual(seq, opSequence(6, 1, p, pool)) {
			t.Fatalf("%s: query sequence ignores the seed", name)
		}
		if len(seq) != p.segments {
			t.Fatalf("%s: %d segments, want %d", name, len(seq), p.segments)
		}
		suggests := 0
		for j, seg := range seq {
			warm := p.warmup
			if p.warmPool {
				warm = len(poolPass(1, j, p, pool))
			}
			if len(seg.warm) != warm || len(seg.meas) != p.ops/p.segments {
				t.Fatalf("%s: segment %d warms up %d and measures %d operations", name, j, len(seg.warm), len(seg.meas))
			}
			sent := map[int]bool{}
			for _, i := range append(append([]int(nil), seg.warm...), seg.meas...) {
				if pool[i].Class == loadgen.ClassSuggest {
					suggests++
				}
				if pool[i].Class == classPaper {
					continue
				}
				if i/p.pool != j {
					t.Fatalf("%s: segment %d sends query %d of another pool", name, j, i)
				}
				if p.distinct && sent[i] {
					t.Fatalf("%s: segment %d sends query %d twice", name, j, i)
				}
				sent[i] = true
			}
		}
		if p.noSuggest != (suggests == 0) {
			t.Fatalf("%s: noSuggest=%v sequence sends %d suggest probes", name, p.noSuggest, suggests)
		}
	}

	schedule := func(seed int64) []string {
		fresh, err := freshPages(seed, len(pages), freshCount(9))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range writeSchedule(seed, pages, fresh, 9) {
			out = append(out, p.ID)
		}
		return out
	}
	if !reflect.DeepEqual(schedule(5), schedule(5)) {
		t.Fatal("write schedule differs between equal seeds")
	}
	if reflect.DeepEqual(schedule(5), schedule(6)) {
		t.Fatal("write schedule ignores the seed")
	}
}

// TestPlansDivide checks that at every run length the measured
// operations split evenly over the segments and a stream without
// repeats fits its pool.
func TestPlansDivide(t *testing.T) {
	for s := 1; s <= 60; s++ {
		for name, p := range plans(s) {
			if p.ops%p.segments != 0 {
				t.Errorf("%s at %ds: %d operations over %d segments", name, s, p.ops, p.segments)
			}
			if p.distinct && p.warmup+p.ops/p.segments > p.pool {
				t.Errorf("%s at %ds: %d distinct operations from a pool of %d", name, s, p.warmup+p.ops/p.segments, p.pool)
			}
		}
	}
}

func TestFreshPagesContinueTheCorpus(t *testing.T) {
	pages, _, _, err := corpusPages(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := freshPages(3, 0, len(pages)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pageIDs(stream[:len(pages)]), pageIDs(pages)) {
		t.Fatal("the longer stream does not start with the corpus")
	}
	seen := map[string]bool{}
	for _, id := range pageIDs(stream) {
		if seen[id] {
			t.Fatalf("page %s repeats: fresh pages would be upserts", id)
		}
		seen[id] = true
	}
}

func pageIDs(pages []*crawler.MatchPage) []string {
	out := make([]string, len(pages))
	for i, p := range pages {
		out[i] = p.ID
	}
	return out
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, trace, nil)
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, s.name, m, s.unit)
				}
			}
		}
	}
}

func TestPerturbedAnswerIsCaught(t *testing.T) {
	// Every workload checks each answer of its stream and, once the write
	// probe is over, the served answers of the check sample.
	for _, name := range workloadNames() {
		for _, stage := range []string{stageStream, stageAfterWrites} {
			planted := 0
			res := tinyRun(t, name, false, func(s string, n int, a *answer) {
				if s != stage || n != 3 {
					return
				}
				planted++
				if len(a.scores) > 0 {
					a.scores[0]++ // one unit in the last place
				} else {
					a.suggest += "x"
				}
			})
			if planted == 0 {
				t.Fatalf("%s/%s: no answer was perturbed", name, stage)
			}
			if res.Correct || res.Failed < planted {
				t.Errorf("%s/%s: %d perturbed answer(s) gave correct=%v failed=%d", name, stage, planted, res.Correct, res.Failed)
			}
		}
	}
}

func TestResultIsTheLastLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("a failed run printed %q", out.String())
	}
	if !strings.Contains(errOut.String(), "search_cold") {
		t.Fatalf("usage does not name the workloads: %q", errOut.String())
	}
}
