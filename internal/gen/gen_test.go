package gen

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cells"
	"repro/internal/ckt"
	"repro/internal/ssta"
	"repro/internal/variation"
)

func TestGenerateExactCounts(t *testing.T) {
	for _, cfg := range []Config{
		{NumFFs: 10, NumGates: 50, Seed: 1},
		{NumFFs: 50, NumGates: 120, Seed: 2},
		{NumFFs: 5, NumGates: 0, Seed: 3},
		{NumFFs: 2, NumGates: 7, Seed: 4},
	} {
		c, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if c.NumFFs() != cfg.NumFFs || c.NumGates() != cfg.NumGates {
			t.Fatalf("got %d FFs %d gates, want %d/%d",
				c.NumFFs(), c.NumGates(), cfg.NumFFs, cfg.NumGates)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{NumFFs: 20, NumGates: 80, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{NumFFs: 20, NumGates: 80, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !ckt.Equal(a, b) {
		t.Fatal("same seed must generate identical circuits")
	}
	c, err := Generate(Config{NumFFs: 20, NumGates: 80, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if ckt.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{NumFFs: 1, NumGates: 5}); err == nil {
		t.Fatal("1 FF should error")
	}
	if _, err := Generate(Config{NumFFs: 5, NumGates: -1}); err == nil {
		t.Fatal("negative gates should error")
	}
}

// TestGenerateRejectsBadFields: every negative or overflowing field is an
// error from Generate, not a panic inside it (makeslice for NumPIs −1,
// rand.IntN for MaxSources −1 and for the overflowing locality span).
func TestGenerateRejectsBadFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"NumPIs -1", Config{NumPIs: -1}},
		{"NumPOs -1", Config{NumPOs: -1}},
		{"MaxSources -1", Config{MaxSources: -1}},
		{"LocalityWindow -1", Config{LocalityWindow: -1}},
		{"LocalityWindow 1<<62", Config{LocalityWindow: 1 << 62}},
		{"NumGates 1<<62", Config{NumGates: 1 << 62}},
		{"NumFFs 1<<62", Config{NumFFs: 1 << 62}},
		{"MaxSources 1<<62", Config{MaxSources: 1 << 62}},
		{"DeepConeFrac -0.5", Config{DeepConeFrac: -0.5}},
		{"PILeafProb NaN", Config{PILeafProb: math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.NumFFs == 0 {
				cfg.NumFFs = 10
			}
			if cfg.NumGates == 0 {
				cfg.NumGates = 30
			}
			if _, err := Generate(cfg); err == nil {
				t.Fatalf("Generate(%+v) accepted a bad field", cfg)
			}
		})
	}
}

func TestGeneratedCircuitHasPairs(t *testing.T) {
	c, err := Generate(Config{NumFFs: 30, NumGates: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.New(c, variation.NewModel(cells.Default()))
	if err != nil {
		t.Fatal(err)
	}
	pairs := a.PairDelays()
	if len(pairs) < 30 {
		t.Fatalf("expected a rich pair graph, got %d pairs", len(pairs))
	}
	// Pair graph must be local-ish and bounded: ≤ MaxSources+slack per capture.
	perCapture := map[int]int{}
	for _, p := range pairs {
		perCapture[p.Capture]++
	}
	for cap, n := range perCapture {
		if n > 8 {
			t.Fatalf("capture %d has %d launches; cones should be small", cap, n)
		}
	}
	// Depth spread: max delays should vary meaningfully across pairs.
	var lo, hi float64
	for i, p := range pairs {
		if i == 0 {
			lo, hi = p.Max.Mean, p.Max.Mean
		}
		if p.Max.Mean < lo {
			lo = p.Max.Mean
		}
		if p.Max.Mean > hi {
			hi = p.Max.Mean
		}
	}
	if hi < 2*lo {
		t.Fatalf("pair delay spread too narrow: [%v, %v]", lo, hi)
	}
}

func TestGeneratedBenchRoundTrip(t *testing.T) {
	c, err := Generate(Config{NumFFs: 12, NumGates: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	text, err := ckt.BenchString(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ckt.ParseBenchString(text, "x")
	if err != nil {
		t.Fatalf("generated .bench does not reparse: %v", err)
	}
	if back.NumFFs() != c.NumFFs() || back.NumGates() != c.NumGates() {
		t.Fatal("round trip lost nodes")
	}
}

func TestPresets(t *testing.T) {
	if len(Presets) != 8 {
		t.Fatalf("expected the paper's 8 benchmarks, got %d", len(Presets))
	}
	// Table I numbers.
	want := map[string][2]int{
		"s9234":        {211, 5597},
		"s13207":       {638, 7951},
		"s15850":       {534, 9772},
		"s38584":       {1426, 19253},
		"mem_ctrl":     {1065, 10327},
		"usb_funct":    {1746, 14381},
		"ac97_ctrl":    {2199, 9208},
		"pci_bridge32": {3321, 12494},
	}
	for _, p := range Presets {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected preset %q", p.Name)
		}
		if p.FFs != w[0] || p.Gates != w[1] {
			t.Fatalf("%s: %d/%d want %d/%d", p.Name, p.FFs, p.Gates, w[0], w[1])
		}
	}
	if _, err := PresetByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatal("unknown preset must error")
	}
	p, err := PresetByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFFs() != 211 || c.NumGates() != 5597 {
		t.Fatalf("s9234 build: %d FFs %d gates", c.NumFFs(), c.NumGates())
	}
}

func TestPresetSeedsDiffer(t *testing.T) {
	s1 := Presets[0].Config().Seed
	s2 := Presets[1].Config().Seed
	if s1 == s2 {
		t.Fatal("presets must have distinct seeds")
	}
	// And stable across calls.
	if Presets[0].Config().Seed != s1 {
		t.Fatal("seed must be stable")
	}
}

func TestSplitBudgetConserves(t *testing.T) {
	c, err := Generate(Config{NumFFs: 40, NumGates: 137, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 137 {
		t.Fatalf("budget not conserved: %d", c.NumGates())
	}
}

func TestDirectFFPaths(t *testing.T) {
	// Budget-0 cones create direct FF→FF connections; with tiny gate count
	// most cones are direct.
	c, err := Generate(Config{NumFFs: 20, NumGates: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	direct := 0
	for _, ffNode := range c.FFs() {
		d := c.Nodes[ffNode].Fanin[0]
		if c.Nodes[d].Kind == ckt.DFF {
			direct++
		}
	}
	if direct < 15 {
		t.Fatalf("expected mostly direct FF→FF cones, got %d/20", direct)
	}
}
