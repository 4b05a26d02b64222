package main

import (
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
)

// guideOutcome is what one Figure-2 guide run decides; the batch gate
// requires it to equal the values recorded for the seed.
type guideOutcome struct {
	Candidates int     `json:"candidates"`
	Winner     string  `json:"cv_winner"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
}

// guideRun is one timed guide run.
type guideRun struct {
	start   time.Time
	seconds float64
	out     guideOutcome
	// goldInCands counts gold pairs among the candidates; reachable
	// counts gold pairs whose both sides survived down-sampling.
	goldInCands, reachable int
}

// guideTask generates the person-domain task of experiments.RunGuideObserved.
func guideTask(sp spec, seed int64) (*datagen.Task, error) {
	return datagen.Generate(datagen.Spec{
		Name: "guide", Domain: datagen.PersonDomain(),
		SizeA: sp.guideA, SizeB: sp.guideB, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
	})
}

// runGuide runs the Figure-2 guide once through public core.Session calls,
// step for step as experiments.RunGuideObserved does, and times it from
// DownSample to TrainAndPredict. rec (nil = off) receives the session's
// and the blockers' metric events.
func runGuide(task *datagen.Task, sp spec, seed int64, rec obs.Recorder) (guideRun, error) {
	var run guideRun
	oracle := label.NewOracle(task.Gold)
	s, err := core.NewSession(task.A, task.B, seed)
	if err != nil {
		return run, err
	}
	s.Metrics = rec
	run.start = time.Now()
	if err := s.DownSample(sp.downA, sp.downB); err != nil {
		return run, err
	}
	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state", Metrics: rec},
		block.OverlapBlocker{Attr: "name", Metrics: rec},
		block.WholeTupleOverlapBlocker{MinOverlap: 2, Metrics: rec},
	}
	best, _, err := s.TryBlockers(blockers, oracle, 10)
	if err != nil {
		return run, err
	}
	cand, err := s.Block(blockers[best])
	if err != nil {
		return run, err
	}
	if _, err := s.SampleAndLabel(400, oracle); err != nil {
		return run, err
	}
	cv, err := s.SelectMatcher(ml.DefaultMatcherFactories(seed), 5)
	if err != nil {
		return run, err
	}
	var factory func() ml.Classifier
	for _, f := range ml.DefaultMatcherFactories(seed) {
		if f().Name() == cv[0].Name {
			factory = f
		}
	}
	matches, _, err := s.TrainAndPredict(factory)
	if err != nil {
		return run, err
	}
	run.seconds = time.Since(run.start).Seconds()

	// Score against the gold pairs both of whose sides survived
	// down-sampling, as RunGuideObserved does.
	aIdx, err := s.A.KeyIndex()
	if err != nil {
		return run, err
	}
	bIdx, err := s.B.KeyIndex()
	if err != nil {
		return run, err
	}
	reachable := label.NewGold(nil)
	for _, g := range task.Gold.Pairs() {
		_, okA := aIdx[g[0]]
		_, okB := bIdx[g[1]]
		if okA && okB {
			reachable.Add(g[0], g[1])
		}
	}
	conf := core.Evaluate(matches, reachable)
	run.out = guideOutcome{Candidates: cand.Len(), Winner: cv[0].Name, Precision: conf.Precision(), Recall: conf.Recall()}
	run.reachable = reachable.Len()
	meta, ok := s.Catalog.PairMeta(cand)
	if !ok {
		return run, fmt.Errorf("guide: candidate set has no catalog entry")
	}
	for i := 0; i < cand.Len(); i++ {
		if reachable.IsMatch(cand.Get(i, meta.LID).AsString(), cand.Get(i, meta.RID).AsString()) {
			run.goldInCands++
		}
	}
	return run, nil
}

// expectedGuide returns the outcome the batch gate requires for seed: the
// value recorded for the full-size task where one exists, otherwise the
// repository's own guide runner, single-worker, as the oracle.
func expectedGuide(sp spec, seed int64) (guideOutcome, string, error) {
	if sp.sizes == full {
		if want, ok := recordedGuides[seed]; ok {
			return want, "recorded", nil
		}
	}
	res, err := experiments.RunGuideWorkers(sp.guideA, sp.guideB, sp.downA, sp.downB, seed, 1)
	if err != nil {
		return guideOutcome{}, "", err
	}
	return guideOutcome{Candidates: res.Candidates, Winner: res.CVWinner, Precision: res.Precision, Recall: res.Recall}, "experiments.RunGuideWorkers(workers=1)", nil
}

// guideGate checks every run's outcome against want.
func guideGate(runs []guideRun, want guideOutcome) gateResult {
	g := gateResult{Name: "batch_guide"}
	for _, r := range runs {
		var err error
		if r.out != want {
			err = fmt.Errorf("guide outcome %+v, recorded %+v", r.out, want)
		}
		g.record(err)
	}
	return g
}
