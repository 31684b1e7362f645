package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much b is worse than a as a share of a: positive when b is
// worse in the metric's direction, negative when it is better.
func worseBy(s metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if s.Better == higher {
		d = -d
	}
	return d
}

// compareFiles prints, per workload and metric, both values, how much worse B
// is than A and, for end-to-end metrics, a verdict against the metric's
// bound (spec.go holds the bounds; a self-test keeps BENCHMARK.json equal to
// it). It returns an error, and the command exits non-zero, when an
// end-to-end metric got worse by more than its bound, a metric is missing
// from either file or a larger share of operations failed.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range workloadNames {
		wa, okA := a.Workloads[name]
		wb, okB := b.Workloads[name]
		if !okA || !okB {
			fmt.Fprintf(w, "%s: missing from one file\n", name)
			bad++
			continue
		}
		fmt.Fprintf(w, "%s\n", name)
		for _, part := range []struct {
			specs []metricSpec
			ra    result
			rb    result
		}{{endToEnd, wa.EndToEnd, wb.EndToEnd}, {perLayer, wa.PerLayer, wb.PerLayer}} {
			for _, s := range part.specs {
				ma, okA := part.ra.Metrics[s.Name]
				mb, okB := part.rb.Metrics[s.Name]
				if !okA || !okB {
					fmt.Fprintf(w, "  %-36s missing from one file\n", s.Name)
					bad++
					continue
				}
				va, vb := ma.Value, mb.Value
				d := worseBy(s, va, vb)
				verdict := ""
				if s.Bound > 0 {
					switch {
					case va <= 0 || vb <= 0:
						// An end-to-end metric is never 0; a run that
						// reports one measured nothing.
						verdict = "NOT MEASURED"
						bad++
					case d > s.Bound:
						verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*s.Bound)
						bad++
					case d < -s.Bound:
						verdict = "better"
					default:
						verdict = "within bound"
					}
				}
				fmt.Fprintf(w, "  %-36s %14.6g %14.6g %-6s worse by %+7.1f%%  %s\n", s.Name, va, vb, s.Unit, 100*d, verdict)
			}
			fa, fb := ratio(float64(part.ra.Failed), float64(part.ra.Attempted)), ratio(float64(part.rb.Failed), float64(part.rb.Attempted))
			if fb > fa {
				fmt.Fprintf(w, "  failed/attempted rose from %d/%d to %d/%d\n", part.ra.Failed, part.ra.Attempted, part.rb.Failed, part.rb.Attempted)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("comparison failed: %d finding(s) beyond the bounds", bad)
	}
	return nil
}
