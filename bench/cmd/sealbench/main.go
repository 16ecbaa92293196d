// Command sealbench runs the repository's benchmark.
//
// With -workload it runs one workload in this process and ends its
// standard output with one JSON line: {"correct", "attempted", "failed",
// "metrics"}, where the metrics are the end-to-end set (-trace 0) or the
// per-layer set (-trace 1). Without -workload it runs every workload,
// each in its own child process, and prints their metrics side by side.
//
//	go run ./cmd/sealbench -workload serve-engine -seed 1 -seconds 20 -trace 0
//	go run ./cmd/sealbench -trace 1
//
// Run it from the repository root (bench/run.sh does the build there);
// a traced run writes its spans under .bench_build/spans/.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"seal/bench"
	"seal/internal/parallel"
)

func main() {
	workload := flag.String("workload", "", "workload to run: serve-engine, serve-gateway, serve-swap or sim-grid (empty: all, one process each)")
	seed := flag.Uint64("seed", 1, "seed for the inputs and the arrival schedule")
	secs := flag.Int("seconds", 20, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end ones")
	flag.Parse()
	// Measure on one core. On a small VM a vCPU that has gone idle takes
	// about a second to get its host core back, so two-core phases land
	// in a fast or a slow mode at random; one core is steady.
	runtime.GOMAXPROCS(1)
	parallel.SetWorkers(1)
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "sealbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *secs, *trace))
	}
	cfg := bench.Config{Workload: *workload, Seed: *seed, Seconds: float64(*secs), Trace: *trace == 1}
	if cfg.Trace {
		cfg.SpanFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
	}
	out, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := json.Marshal(map[string]any{"report": out.Report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealbench: %v\n", err)
		os.Exit(1)
	}
	res, err := json.Marshal(out.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(rep))
	fmt.Println(string(res))
	if !out.Report.Valid {
		fmt.Fprintf(os.Stderr, "sealbench: run invalid: %v\n", out.Report.Invalid)
	}
	if !out.Result.Correct || out.Result.Failed > 0 {
		fmt.Fprintf(os.Stderr, "sealbench: %d of %d operations failed (correct=%v)\n", out.Result.Failed, out.Result.Attempted, out.Result.Correct)
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of this binary and
// prints one table of their metrics. It returns the exit code.
func runAll(seed uint64, secs, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sealbench: %v\n", err)
		return 1
	}
	code := 0
	results := make(map[string]bench.Result)
	for _, w := range bench.Workloads {
		fmt.Fprintf(os.Stderr, "sealbench: running %s\n", w)
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		last := lastLine(stdout.Bytes())
		var r bench.Result
		if jerr := json.Unmarshal(last, &r); jerr != nil || err != nil {
			fmt.Fprintf(os.Stderr, "sealbench: %s: %v %v\n", w, err, jerr)
			code = 1
			continue
		}
		results[w] = r
	}
	fmt.Printf("%-36s %-6s", "metric", "unit")
	for _, w := range bench.Workloads {
		fmt.Printf(" %14s", w)
	}
	fmt.Println()
	for _, name := range bench.MetricNames(trace == 1) {
		unit := ""
		row := ""
		for _, w := range bench.Workloads {
			m, ok := results[w].Metrics[name]
			if !ok {
				row += fmt.Sprintf(" %14s", "-")
				continue
			}
			unit = m.Unit
			row += fmt.Sprintf(" %14.4g", m.Value)
		}
		fmt.Printf("%-36s %-6s%s\n", name, unit, row)
	}
	for _, w := range bench.Workloads {
		r := results[w]
		fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", w, r.Correct, r.Attempted, r.Failed)
	}
	return code
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
