// Command bench is the mediator benchmark BENCHMARK.json describes: four
// workloads, each measured end to end in a window with every wrapper off and
// layer by layer in a separate traced run. README.md has the tables.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's contract)
//	bench -seed N [-out FILE]                             every workload, each run in its own subprocess
//	bench -compare A.json B.json                          verdict of B against A, by BENCHMARK.json's bounds
//	bench -smoke                                          every workload, tiny and short (the self-test)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: all, each in a subprocess)")
	seed := fs.Int64("seed", 1, "seed of the query sequence")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny instances and sub-second windows")
	out := fs.String("out", "", "all-workloads mode: also write the result as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Slow-remote and slow-query warnings belong to the program under
	// test; they must not reach the benchmark's output.
	slog.SetDefault(quietLogger)

	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *smoke, *out, stdout)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	dir, err := workDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, workDir: dir}
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// workDir makes the directory a run keeps its store and scratch files in. It
// lives under .bench_build in the current directory, so a run never touches
// anything outside its checkout.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}
