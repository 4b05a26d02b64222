// Command benchem regenerates the paper's evaluation tables and figures
// from the live system (see DESIGN.md's per-experiment index):
//
//	benchem -exp table1        PyMatcher deployments vs incumbents (Table 1)
//	benchem -exp table2        CloudMatcher deployments (Table 2)
//	benchem -exp table3        tool inventory per guide step (Table 3)
//	benchem -exp table4        CloudMatcher service catalog (Table 4)
//	benchem -exp guide         one full Figure 2 guide run
//	benchem -exp concurrency   CloudMatcher 0.1 vs 1.0 (Figure 5)
//	benchem -exp smurf         Falcon vs Smurf labeling effort (§5.3)
//	benchem -exp mlrules       ML/rules/ML+rules ablation (§6)
//	benchem -exp blockers      blocker recall/reduction ablation
//	benchem -exp parallel      workers x n scaling sweep: simjoin, forest fit, serve Pool (BENCH_parallel.json)
//	benchem -exp all           everything above
//
// With -metrics PATH the guide experiment records per-stage timings into a
// live registry and writes the snapshot as JSON ("-" for stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// parseIntList parses a comma-separated list of positive ints ("1,2,4,8").
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid list entry %q (want positive integers)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// writeMetricsSnapshot dumps a registry's per-stage timings as indented
// JSON to path, or to stdout when path is "-".
func writeMetricsSnapshot(reg *obs.Registry, path string) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1|table2|table3|table4|guide|concurrency|smurf|mlrules|blockers|parallel|all)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker goroutines for parallelized stages; 0 means GOMAXPROCS")
	benchout := flag.String("benchout", "BENCH_parallel.json", "output path for the parallel bench JSON")
	scaleWorkers := flag.String("scaleworkers", "1,2,4,8", "comma-separated worker counts for the parallel scaling sweep")
	scaleN := flag.String("scalen", "1000,10000,100000", "comma-separated input sizes for the parallel scaling sweep")
	requireCores := flag.Bool("requirecores", false, "fail the parallel experiment when GOMAXPROCS < 2 instead of just warning")
	minSpeedup := flag.Float64("minspeedup", 1.5, "fail the parallel experiment when simjoin_jaccard or forest_fit_32trees speedup at workers=4 on the largest n falls below this (enforced only when GOMAXPROCS >= 4; 0 disables)")
	serveMinSpeedup := flag.Float64("serveminspeedup", 1.5, "fail the parallel experiment when serve_match speedup at workers=4 on the largest n falls below this (enforced only when GOMAXPROCS >= 4; 0 disables)")
	metricsPath := flag.String("metrics", "", "write the guide run's per-stage metrics snapshot as JSON to this path (\"-\" for stdout)")
	flag.Parse()

	run := func(name string) error {
		switch name {
		case "table1":
			fmt.Println("== Table 1: PyMatcher deployments (ML workflow vs incumbent rules) ==")
			rows, err := experiments.RunTable1(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable1(rows))
		case "table2":
			fmt.Println("== Table 2: CloudMatcher deployments ==")
			rows, err := experiments.RunTable2(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable2(rows))
		case "table3":
			fmt.Println("== Table 3: tools per step of the PyMatcher guide ==")
			fmt.Print(experiments.FormatTable3(experiments.Table3()))
		case "table4":
			fmt.Println("== Table 4: CloudMatcher services ==")
			fmt.Print(experiments.FormatTable4())
		case "guide":
			fmt.Println("== Figure 2: the PyMatcher how-to guide, end to end ==")
			var reg *obs.Registry
			if *metricsPath != "" {
				reg = obs.NewRegistry()
			}
			// A nil *Registry must stay a nil Recorder interface, so pass
			// it through obs.Or only when live.
			var rec obs.Recorder
			if reg != nil {
				rec = reg
			}
			res, err := experiments.RunGuideObserved(2000, 2000, 600, 600, *seed, *workers, rec)
			if err != nil {
				return err
			}
			fmt.Printf("down-sampled to %d/%d rows\n", res.DownsampledA, res.DownsampledB)
			fmt.Printf("blocker chosen: %s -> %d candidates\n", res.BlockerChosen, res.Candidates)
			fmt.Printf("cross-validation winner: %s (F1 %.2f)\n", res.CVWinner, res.CVF1)
			fmt.Printf("final accuracy: P %.1f%%  R %.1f%%  (%d questions)\n",
				100*res.Precision, 100*res.Recall, res.Questions)
			if reg != nil {
				if err := writeMetricsSnapshot(reg, *metricsPath); err != nil {
					return err
				}
			}
		case "concurrency":
			fmt.Println("== Figure 5: serial CloudMatcher 0.1 vs concurrent 1.0 ==")
			res, err := experiments.RunConcurrency(6, *seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatConcurrency(res))
		case "smurf":
			fmt.Println("== §5.3: Smurf labeling reduction vs Falcon ==")
			rows, err := experiments.RunSmurfComparison(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSmurf(rows))
		case "mlrules":
			fmt.Println("== §6 ablation: ML only vs rules only vs ML+rules ==")
			rows, err := experiments.RunMLRulesAblation(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatMLRules(rows))
		case "blockers":
			fmt.Println("== ablation: blocker recall vs reduction ==")
			rows, err := experiments.RunBlockerAblation(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatBlockers(rows))
		case "parallel":
			fmt.Println("== parallel execution layer: workers x n scaling sweep ==")
			// A 1-core box cannot show scaling: speedups recorded there are
			// noise around 1.0, not evidence. Warn loudly, or refuse when the
			// caller demands real cores (-requirecores, the CI setting).
			if runtime.GOMAXPROCS(0) < 2 {
				if *requireCores {
					return fmt.Errorf("GOMAXPROCS=%d < 2 and -requirecores is set: this box cannot measure scaling", runtime.GOMAXPROCS(0))
				}
				fmt.Fprintf(os.Stderr, "benchem: warning: GOMAXPROCS=%d < 2 — speedup columns cannot show scaling on this box (cores_ok=false in %s)\n",
					runtime.GOMAXPROCS(0), *benchout)
			}
			ws, err := parseIntList(*scaleWorkers)
			if err != nil {
				return fmt.Errorf("-scaleworkers: %w", err)
			}
			ns, err := parseIntList(*scaleN)
			if err != nil {
				return fmt.Errorf("-scalen: %w", err)
			}
			res, err := experiments.RunParallelBench(*seed, ws, ns)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatParallelBench(res))
			data, err := res.MarshalBenchJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*benchout, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *benchout)
			// Divergence from the Workers=1 output is a correctness bug at
			// any core count: fail the run so CI catches it.
			if div := res.Diverged(); len(div) > 0 {
				return fmt.Errorf("parallel outputs diverged from Workers=1 on: %v", div)
			}
			// The scaling gate only means something with real cores behind
			// the workers; with fewer the sweep still pins determinism and
			// allocs, but speedup is physically capped at ~1.0.
			if runtime.GOMAXPROCS(0) >= 4 {
				for _, g := range []struct {
					name  string
					floor float64
				}{
					{"simjoin_jaccard", *minSpeedup},
					{"forest_fit_32trees", *minSpeedup},
					{"serve_match", *serveMinSpeedup},
				} {
					if s := res.SpeedupAt(g.name, 4); g.floor > 0 && s > 0 && s < g.floor {
						return fmt.Errorf("%s speedup at workers=4 is %.2fx, below the %.2fx regression floor", g.name, s, g.floor)
					}
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}

	var names []string
	if *exp == "all" {
		names = []string{"table3", "table4", "guide", "table1", "smurf", "mlrules", "blockers", "parallel", "concurrency", "table2"}
	} else {
		names = []string{*exp}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "benchem: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}
