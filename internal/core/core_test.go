package core

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/insertion"
)

func smallSystem(t *testing.T) *System {
	t.Helper()
	c, err := gen.Generate(gen.Config{NumFFs: 25, NumGates: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromCircuit(c, Options{PeriodSamples: 800})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateAndSummary(t *testing.T) {
	s := smallSystem(t)
	if s.PeriodMu() <= 0 || s.PeriodSigma() <= 0 {
		t.Fatalf("period stats: %v %v", s.PeriodMu(), s.PeriodSigma())
	}
	if s.TargetPeriod(2) != s.PeriodMu()+2*s.PeriodSigma() {
		t.Fatal("target period arithmetic")
	}
	sum := s.Summary()
	if !strings.Contains(sum, "25 FFs") || !strings.Contains(sum, "120 gates") {
		t.Fatalf("summary = %q", sum)
	}
	if s.Circuit().NumFFs() != 25 || s.Graph().NS != 25 {
		t.Fatal("accessors")
	}
	if s.Bench() == nil || s.Name() == "" {
		t.Fatal("bench/name")
	}
}

func TestEndToEndViaFacade(t *testing.T) {
	s := smallSystem(t)
	T := s.TargetPeriod(0)
	res, err := s.Insert(T, insertion.Config{Samples: 250, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.MeasureYield(res, T, 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Original.Rate() < 0.35 || rep.Original.Rate() > 0.65 {
		t.Fatalf("Yo at µT = %v", rep.Original.Rate())
	}
	if rep.Improvement() < 0 {
		t.Fatal("yield must not decrease")
	}
}

func TestFromBench(t *testing.T) {
	const src = `# mini
INPUT(a)
OUTPUT(q)
f1 = DFF(g2)
f2 = DFF(g3)
g1 = NAND(a, f1)
g2 = OR(g1, f2)
g3 = NOT(f1)
q = BUFF(f2)
`
	s, err := FromBench(strings.NewReader(src), "mini", Options{PeriodSamples: 300})
	if err != nil {
		t.Fatal(err)
	}
	if s.Circuit().NumFFs() != 2 {
		t.Fatalf("FFs = %d", s.Circuit().NumFFs())
	}
	if s.PeriodMu() <= 0 {
		t.Fatal("period")
	}
}

func TestFromBenchParseError(t *testing.T) {
	if _, err := FromBench(strings.NewReader("garbage(("), "x", Options{}); err == nil {
		t.Fatal("parse error expected")
	}
}

func TestFromPreset(t *testing.T) {
	s, err := FromPreset("s9234", Options{PeriodSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s.Circuit().NumFFs() != 211 || s.Circuit().NumGates() != 5597 {
		t.Fatal("preset dimensions")
	}
	if _, err := FromPreset("nope", Options{}); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestInsertDefaults(t *testing.T) {
	s := smallSystem(t)
	T := s.TargetPeriod(2)
	res, err := s.Insert(T, insertion.Config{Samples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cfg.T != T {
		t.Fatal("T must be overwritten")
	}
	if res.Cfg.Spec.Steps != 20 || res.Cfg.Spec.MaxRange != T/8 {
		t.Fatalf("paper default spec expected, got %+v", res.Cfg.Spec)
	}
	// Bad evaluator config surfaces.
	bad := *res
	bad.Groups = []insertion.Group{{FFs: []int{0}, Lo: 1, Hi: 2}}
	if _, err := s.MeasureYield(&bad, T, 10, 0); err == nil {
		t.Fatal("bad groups must fail")
	}
}
