package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the tests check output against.
type contract struct {
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

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs a workload at tiny sizes as the command line would run it
// at full size, and returns the exit code and the decoded last line (nil
// when there is none).
func runTiny(t *testing.T, workload string, seconds float64, trace int) (int, *result) {
	t.Helper()
	o := options{workload: workload, seed: 3, seconds: seconds, trace: trace, traceOut: t.TempDir()}
	rep, err := runWorkload(tiny(workloads[workload]), o)
	if err != nil {
		t.Logf("%s: %v", workload, err)
		return 1, nil
	}
	var out, errb bytes.Buffer
	code := emit(rep, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("stderr: %s", errb.String())
		return code, nil
	}
	return code, &res
}

func TestEveryMetricNameAndUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := loadContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []int{0, 1} {
			code, res := runTiny(t, w.Name, 3, trace)
			if code != 0 || res == nil || !res.Correct {
				t.Fatalf("%s trace %d: exit %d, result %+v", w.Name, trace, code, res)
			}
			want := c.EndToEnd
			if trace == 1 {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, contract lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedReplyFailsServeGate(t *testing.T) {
	sp := tiny(workloads["serve_mixed"])
	p, err := prepare(sp, 5, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client := p.d.streams[0].client
	if g := serveGate("clean", p.srv, client, p.in, p.fs, p.clf, p.sh, sp.gateSample, nil); g.Failed != 0 || g.Checked == 0 {
		t.Fatalf("clean replies: %+v", g)
	}
	// Shift the first score of every reply by 1e-9; an empty reply gets a
	// pair that cannot exist.
	corrupt := func(b []byte) []byte {
		var r matchResponse
		if err := json.Unmarshal(b, &r); err != nil || len(r.Pairs) == 0 {
			return []byte(`{"pairs":[{"id":"nope"}]}`)
		}
		r.Pairs[0].Score += 1e-9
		out, _ := json.Marshal(r)
		return out
	}
	g := serveGate("corrupt", p.srv, client, p.in, p.fs, p.clf, p.sh, sp.gateSample, corrupt)
	if g.Failed != g.Checked || g.Checked == 0 {
		t.Fatalf("corrupted replies passed the gate: %+v", g)
	}
}

func TestChangedPrecisionFailsBatchGate(t *testing.T) {
	sp := tiny(workloads["serve_mixed"])
	task, err := guideTask(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runGuide(task, sp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := expectedGuide(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g := guideGate([]guideRun{r}, want); g.Failed != 0 {
		t.Fatalf("guide disagrees with its oracle: %+v", g)
	}
	want.Precision += 0.001
	var rep report
	rep.metrics = map[string]metric{"guide_s": {Value: r.seconds, Unit: "s"}}
	rep.acc.gate(guideGate([]guideRun{r}, want))
	res := rep.result()
	if res.Correct || res.Failed != 1 || len(res.Metrics) != 0 {
		t.Fatalf("changed precision: %+v", res)
	}
}

func TestRecordedGuideMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size guide")
	}
	got, _, err := expectedGuide(spec{sizes: full}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := recordedGuides[1]; got != want {
		t.Fatalf("recorded %+v, repository guide gives %+v", want, got)
	}
}

func TestUndersampledQuantileRefused(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := quantile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	if v, err := quantile(append(xs, 999), 0.99); err != nil || v != 989 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 989", v, err)
	}
	if _, err := quantile(make([]float64, 9999), 0.999); err == nil {
		t.Fatal("p999 of 9,999 samples was reported")
	}
	if v, err := median([]float64{3, 1, 2}); err != nil || v != 2 {
		t.Fatalf("median = %v, %v", v, err)
	}
	if tm, err := summarize(xs, "ms"); err != nil || tm.Quantiles["p99"] != 0 || tm.Quantiles["p95"] == 0 {
		t.Fatalf("summary of 999 samples: %+v, %v; want p95 and no p99", tm, err)
	}
	// A traced run too short to support its p99s prints no result.
	code, res := runTiny(t, "serve_wide", 0.05, 1)
	if code == 0 || res != nil {
		t.Fatalf("undersampled run: exit %d, result %+v", code, res)
	}
}
