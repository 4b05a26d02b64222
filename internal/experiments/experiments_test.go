package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestRunTable2TaskMembers(t *testing.T) {
	// The smallest Table 2 row: 300×300 "members".
	var spec datagen.TaskSpec
	for _, ts := range datagen.Table2Tasks(1) {
		if ts.Spec.Name == "members" {
			spec = ts
		}
	}
	row, err := RunTable2Task(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Questions == 0 || row.Questions > spec.QuestionCap {
		t.Errorf("questions = %d, cap %d", row.Questions, spec.QuestionCap)
	}
	if row.Precision < 0.85 || row.Recall < 0.85 {
		t.Errorf("members P=%.3f R=%.3f, want both >= 0.85", row.Precision, row.Recall)
	}
	if row.CrowdCost != 0 {
		t.Error("single-user task should have no crowd cost")
	}
	if row.LabelTime <= 0 || row.MachineTime <= 0 {
		t.Error("time columns missing")
	}
	out := FormatTable2([]Table2Row{row})
	if !strings.Contains(out, "members") {
		t.Error("rendering lost the task name")
	}
}

func TestRunTable2CrowdTaskHasCosts(t *testing.T) {
	// A small crowd task variant to exercise the cost columns without
	// paying for a full-size task in tests.
	ts := datagen.TaskSpec{
		Org: "test", Crowd: true, QuestionCap: 400,
		Spec: datagen.Spec{Name: "crowdtest", Domain: datagen.RestaurantDomain(),
			SizeA: 300, SizeB: 300, MatchFraction: 0.5, Typo: 0.25, Seed: 5},
	}
	row, err := RunTable2Task(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.CrowdCost <= 0 {
		t.Error("crowd task should report a crowd cost")
	}
	if row.ComputeCost <= 0 {
		t.Error("crowd task should report a compute cost")
	}
	// $0.06 per question (3 workers × 2¢).
	want := float64(row.Questions) * 0.06
	if diff := row.CrowdCost - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("crowd cost = %v, want %v", row.CrowdCost, want)
	}
}

func TestRunTable1Deployment(t *testing.T) {
	d := datagen.Deployment{
		Org: "Test Org", Purpose: "test", InProduction: true,
		Spec: datagen.Spec{Name: "t1", Domain: datagen.RanchDomain(),
			SizeA: 400, SizeB: 400, MatchFraction: 0.4, Typo: 0.35, Missing: 0.1, Seed: 6},
	}
	row, err := RunTable1Deployment(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: ML recall beats the incumbent's at
	// comparable precision.
	if row.MLRecall <= row.BaseRecall {
		t.Errorf("ML recall %.3f should beat incumbent %.3f", row.MLRecall, row.BaseRecall)
	}
	if row.MLF1 <= row.BaseF1 {
		t.Errorf("ML F1 %.3f should beat incumbent %.3f", row.MLF1, row.BaseF1)
	}
	out := FormatTable1([]Table1Row{row})
	if !strings.Contains(out, "Test Org") {
		t.Error("rendering lost the org")
	}
}

func TestRunGuide(t *testing.T) {
	res, err := RunGuide(400, 400, 250, 250, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.DownsampledA != 250 || res.DownsampledB != 250 {
		t.Errorf("downsample sizes = %d/%d", res.DownsampledA, res.DownsampledB)
	}
	if res.BlockerChosen == "" || res.CVWinner == "" {
		t.Error("guide steps missing outputs")
	}
	if res.CVF1 < 0.7 {
		t.Errorf("cv f1 = %.3f suspiciously low", res.CVF1)
	}
	if res.Precision < 0.8 {
		t.Errorf("guide precision = %.3f", res.Precision)
	}
}

// TestRunGuideWorkersIdentical pins RunGuideWorkers' contract that the
// worker count never changes the guide's output.
func TestRunGuideWorkersIdentical(t *testing.T) {
	serial, err := RunGuideWorkers(400, 400, 250, 250, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGuideWorkers(400, 400, 250, 250, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("Workers=4 guide diverged from Workers=1:\n%+v\n%+v", par, serial)
	}
}

func TestRunConcurrency(t *testing.T) {
	res, err := RunConcurrency(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 {
		t.Errorf("jobs = %d", res.Jobs)
	}
	// Interleaving must help when labeling latency dominates; allow a
	// generous margin for scheduler noise but demand a real win.
	if res.Speedup < 1.2 {
		t.Errorf("concurrent speedup = %.2fx, want >= 1.2x", res.Speedup)
	}
	if FormatConcurrency(res) == "" {
		t.Error("empty rendering")
	}
}

func TestRunSmurfComparisonShape(t *testing.T) {
	rows, err := RunSmurfComparison(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Reduction <= 0 {
			t.Errorf("%s: smurf did not reduce labeling (%d vs %d)", r.Task, r.SmurfQuestions, r.FalconQuestions)
		}
		if r.SmurfF1 < r.FalconF1-0.15 {
			t.Errorf("%s: smurf F1 %.3f collapsed vs falcon %.3f", r.Task, r.SmurfF1, r.FalconF1)
		}
	}
	if FormatSmurf(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestRunMLRulesAblation(t *testing.T) {
	rows, err := RunMLRulesAblation(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]MLRulesRow{}
	for _, r := range rows {
		byName[r.Workflow] = r
	}
	if byName["ml_only"].F1 <= byName["rules_only"].F1 {
		t.Errorf("ml %.3f should beat rules-only %.3f", byName["ml_only"].F1, byName["rules_only"].F1)
	}
	if byName["ml_plus_rules"].F1 < byName["ml_only"].F1-0.01 {
		t.Errorf("ml+rules %.3f should not trail ml-only %.3f (the §6 claim)",
			byName["ml_plus_rules"].F1, byName["ml_only"].F1)
	}
	if byName["rules_only"].Precision < 0.9 {
		t.Errorf("rules-only precision %.3f should be high (conservative)", byName["rules_only"].Precision)
	}
	if FormatMLRules(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestRunBlockerAblation(t *testing.T) {
	rows, err := RunBlockerAblation(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]BlockerRow{}
	for _, r := range rows {
		byName[r.Blocker] = r
	}
	// Loosening the overlap threshold must not lower recall.
	if byName["overlap(name,k=1)"].Recall < byName["overlap(name,k=2)"].Recall {
		t.Error("k=1 overlap should have >= recall of k=2")
	}
	// State equivalence keeps nearly all matches (state rarely corrupts
	// into another valid value) but reduces far less.
	se := byName["attr_equiv(state)"]
	ov := byName["overlap(name,k=2)"]
	if se.Reduction >= ov.Reduction {
		t.Error("state blocking should reduce less than name overlap")
	}
	if FormatBlockers(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestTable3And4Render(t *testing.T) {
	t3 := FormatTable3(Table3())
	if !strings.Contains(t3, "Blocking") || !strings.Contains(t3, "TOTAL") {
		t.Error("table 3 rendering incomplete")
	}
	total := 0
	for _, r := range Table3() {
		total += len(r.Tools)
	}
	if total < 60 {
		t.Errorf("tool inventory = %d commands, suspiciously small", total)
	}
	t4 := FormatTable4()
	if !strings.Contains(t4, "falcon") || !strings.Contains(t4, "18 basic + 2 composite") {
		t.Errorf("table 4 rendering incomplete:\n%s", t4)
	}
}

// TestProvenance pins that every benchmark payload can identify its
// environment: toolchain, platform, core budget, and (inside a checkout)
// the commit read straight from the .git directory.
func TestProvenance(t *testing.T) {
	p := CollectProvenance()
	if p.GoVersion == "" || p.GOOS == "" || p.GOARCH == "" || p.NumCPU < 1 || p.GOMAXPROCS < 1 {
		t.Fatalf("incomplete provenance: %+v", p)
	}
	if p.GitCommit != "" {
		if len(p.GitCommit) != 40 {
			t.Fatalf("implausible git commit %q", p.GitCommit)
		}
		for _, c := range p.GitCommit {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("git commit %q is not hex", p.GitCommit)
			}
		}
	}
}
