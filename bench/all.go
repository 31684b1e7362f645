package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// childEnv marks a process as one of runAll's subprocesses. The test binary
// checks it in TestMain so that the self-test can re-exec itself as the
// benchmark.
const childEnv = "TATBENCH_CHILD"

// workloadResult is both runs of one workload.
type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// report is what the all-workloads mode writes with -out and what -compare
// reads.
type report struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runAll measures every workload, each run in its own subprocess so that
// peak_rss_mb and the allocation counts belong to that run alone, and prints
// every metric by name with its unit.
func runAll(seed int64, seconds float64, smoke bool, out string, stdout io.Writer) error {
	if smoke {
		seconds = 1
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: seed, Seconds: seconds, Workloads: map[string]workloadResult{}}
	for _, w := range workloadNames {
		var wr workloadResult
		for _, tr := range []struct {
			flag string
			into *result
		}{{"0", &wr.EndToEnd}, {"1", &wr.PerLayer}} {
			args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr.flag}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Env = append(os.Environ(), childEnv+"=1")
			cmd.Stderr = os.Stderr
			output, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s --trace %s: %w", w, tr.flag, err)
			}
			lines := bytes.Split(bytes.TrimSpace(output), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], tr.into); err != nil {
				return fmt.Errorf("%s --trace %s: bad result line: %w", w, tr.flag, err)
			}
		}
		rep.Workloads[w] = wr
		printWorkload(stdout, w, wr)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func printWorkload(w io.Writer, name string, wr workloadResult) {
	for _, part := range []struct {
		title string
		specs []metricSpec
		res   result
	}{{"end to end", endToEnd, wr.EndToEnd}, {"per layer", perLayer, wr.PerLayer}} {
		fmt.Fprintf(w, "%s, %s: correct=%v attempted=%d failed=%d\n", name, part.title, part.res.Correct, part.res.Attempted, part.res.Failed)
		for _, s := range part.specs {
			if v, ok := part.res.Metrics[s.Name]; ok {
				fmt.Fprintf(w, "  %-36s %16.6g %s\n", s.Name, v.Value, v.Unit)
			}
		}
	}
}
