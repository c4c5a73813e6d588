// Command perfbench is the repository's benchmark. It builds the
// full-inference sharded engine from a seeded synthetic corpus, drives
// one workload against it in-process through the engine's public API,
// checks every answer against an independent path, and prints one JSON
// result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload search_cold --seed 1 --seconds 20 --trace 0
//
// Workloads are search_cold and search_cached; see README.md in this
// directory. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. Lines before the last describe
// the run's environment; the last line is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: search_cold or search_cached")
	seed := fs.Int64("seed", 1, "seed of the corpus, query streams and write probe")
	seconds := fs.Int("seconds", 20, "run length; fixes the operation counts (1..60)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	commit := fs.String("commit", "", "commit being measured, for the environment record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := plans(*seconds)[*workload]
	if !ok || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds 1..60 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := &config{workload: *workload, seed: *seed, trace: *trace == 1, plan: p, log: stderr}
	res, env, err := measure(cfg, *root, *commit)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	envLine, _ := json.Marshal(env) // plain struct: cannot fail
	fmt.Fprintf(stdout, "env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs cfg in a scratch directory under root and assembles the
// result and the environment record.
func measure(cfg *config, root, commit string) (*result, *environment, error) {
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	env := startEnvironment(root, commit)
	chk, vals, err := execute(cfg)
	env.finish()
	if err != nil {
		return nil, nil, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	metrics, err := report(specs, vals)
	if err != nil {
		return nil, nil, err
	}
	if chk.failed > 0 {
		env.Mismatches = chk.notes
	}
	return &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}, env, nil
}

func workloadNames() []string {
	var names []string
	for n := range plans(1) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
