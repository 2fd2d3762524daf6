package yield

import (
	"context"
	"fmt"

	"repro/internal/mc"
	"repro/internal/stat"
)

// This file is the sequential ("yield ± ε") evaluation loop: instead of a
// fixed n, samples arrive in escalating waves (Wave0, 2·Wave0, 4·Wave0, …)
// whose integer tallies merge into a running estimate, and the loop stops
// the first time every queried threshold is known to the requested
// half-width at the requested confidence. Peeking after every wave is kept
// honest by the α-spending schedule in internal/stat. Two variance
// reductions sharpen the estimates beyond plain Monte Carlo: the wave
// sampler stratifies the first global variation component, and
// cheap zero-only waves (step-1 search only, no rescue solver) extend the
// step-1 tallies, which act as a control variate for step-2 (tuned) yield.
//
// Every decision — wave sizes, wave kinds, when to stop — is a pure
// function of the merged integer tallies, which are themselves
// deterministic in the sample universe. The adaptive schedule is therefore
// identical whether waves run in-process or are sharded across workers.

// Default adaptive parameters. DefaultWave0 is a multiple of
// 2·DefaultStrata, the wave alignment, so default waves cover every
// stratum evenly.
const (
	// DefaultWave0 is the first wave's sample count.
	DefaultWave0 = 256
	// DefaultStrata is the stratification granularity of the first global
	// variation component.
	DefaultStrata = 16
)

// Precision is an adaptive evaluation request: stop when every queried
// threshold's yield is known to ±Eps at confidence Conf. The zero value
// (Eps 0) is inactive: Drive then runs exact fixed-n evaluation.
type Precision struct {
	// Eps is the target half-width on every reported yield, in (0, 0.5).
	// 0 disables adaptive evaluation.
	Eps float64
	// Conf is the confidence of the reported intervals, valid jointly over
	// all waves (optional stopping included). 0 means 0.95.
	Conf float64
	// Bound selects the interval family (default stat.BoundWilson).
	Bound stat.Bound
	// Wave0 is the first wave size; 0 means DefaultWave0.
	Wave0 int
	// Strata stratifies the first global variation component over this
	// many bands; 0 means DefaultStrata, negative disables stratification.
	Strata int
}

// Active reports whether the request asks for adaptive evaluation.
func (p Precision) Active() bool { return p.Eps > 0 }

// norm validates and fills defaults.
func (p Precision) norm() (Precision, error) {
	if !(p.Eps > 0 && p.Eps < 0.5) {
		return p, fmt.Errorf("yield: adaptive eps %v outside (0, 0.5)", p.Eps)
	}
	if p.Conf == 0 {
		p.Conf = 0.95
	}
	if p.Conf < 0.5 || p.Conf >= 1 {
		return p, fmt.Errorf("yield: adaptive conf %v outside [0.5, 1)", p.Conf)
	}
	if p.Wave0 <= 0 {
		p.Wave0 = DefaultWave0
	}
	if p.Strata == 0 {
		p.Strata = DefaultStrata
	} else if p.Strata < 0 {
		p.Strata = 0
	}
	return p, nil
}

// PointEstimate is one adaptive yield number: Estimate ± HalfWidth holds
// with the report's confidence.
type PointEstimate struct {
	Estimate  float64 `json:"estimate"`
	HalfWidth float64 `json:"half_width"`
	// Samples is the number of distinct chips informing the estimate: all
	// step-1 samples for Original (and for a control-variate Tuned
	// estimate), joint samples only for a direct Tuned estimate.
	Samples int `json:"samples"`
	// CV marks a Tuned estimate assembled from the control-variate form
	// (step-1 rate over all samples plus rescue rate over joint samples)
	// because its interval was tighter than the direct one.
	CV bool `json:"cv,omitempty"`
}

// AdaptiveReport is the adaptive counterpart of SweepReport: per sweep
// point, yield estimates with confidence half-widths, plus how much work
// the stopping rule actually spent.
type AdaptiveReport struct {
	Ts       []float64       `json:"ts"`
	Original []PointEstimate `json:"original"`
	Tuned    []PointEstimate `json:"tuned"`
	// SamplesUsed counts all realized chips (joint + zero-only waves);
	// JointSamples counts the chips that also ran the step-2 rescue search.
	SamplesUsed  int     `json:"samples_used"`
	JointSamples int     `json:"joint_samples"`
	Waves        int     `json:"waves"`
	Met          bool    `json:"met"`
	Eps          float64 `json:"eps"`
	Conf         float64 `json:"conf"`
}

// Adaptive is the wave state machine. Drive alternates Next (which range
// to realize, and whether the wave is zero-only) with Absorb (merge the
// wave's tallies, advance the stopping rule). The machine never realizes
// chips itself: the tallier Drive is given does, in-process or sharded
// across workers, so every backend follows the identical schedule.
type Adaptive struct {
	// Prec is the normalized request (defaults filled, Strata possibly
	// cleared when the sample cap cannot balance the bands).
	Prec Precision

	n      int // sample cap (the fixed-n budget adaptive must beat)
	align  int // wave sizes are multiples of this (2, or 2·Strata)
	sweeps []*SweepEvaluator

	cursor   int // samples consumed: next wave starts here
	waves    int // completed waves (= peeking checks spent)
	nextSize int

	pending  bool
	pendLo   int
	pendHi   int
	pendZero bool

	joint []SweepTally // per sweep: both histograms over joint waves
	zonly [][]int      // per sweep: FirstZero histogram over zero-only waves

	done bool
	met  bool
}

// NewAdaptive prepares an adaptive evaluation of the sweeps, capped at n
// samples (the nominal fixed-n budget; the rule stops earlier whenever the
// requested precision is met). Wave sizes are floored to multiples of
// 2·Strata (two stratification cycles, covering every band evenly; 2
// without strata), so up to one such alignment of the cap may go unused;
// when n cannot fit even one, stratification is disabled instead. The
// alignment sets the wave schedule, so changing it changes every adaptive
// result.
func NewAdaptive(prec Precision, n int, sweeps ...*SweepEvaluator) (*Adaptive, error) {
	p, err := prec.norm()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("yield: adaptive sample cap %d must be positive", n)
	}
	if len(sweeps) == 0 {
		return nil, fmt.Errorf("yield: adaptive evaluation needs at least one sweep")
	}
	align := 2
	if p.Strata > 1 {
		align = 2 * p.Strata
		if align > n {
			p.Strata = 0
			align = 2
		}
	}
	a := &Adaptive{Prec: p, n: n, align: align, sweeps: sweeps, nextSize: p.Wave0}
	a.joint = make([]SweepTally, len(sweeps))
	a.zonly = make([][]int, len(sweeps))
	for i, sw := range sweeps {
		a.joint[i] = sw.NewTally()
		a.zonly[i] = make([]int, len(sw.Ts)+1)
	}
	return a, nil
}

// Next returns the sample range of the next wave and whether it is a
// zero-only wave, or ok=false when the rule has stopped (precision met or
// cap exhausted). The previous wave must have been absorbed.
func (a *Adaptive) Next() (lo, hi int, zeroOnly bool, ok bool) {
	if a.pending {
		panic("yield: Adaptive.Next before Absorb of the previous wave")
	}
	if a.done {
		return 0, 0, false, false
	}
	size := a.nextSize
	if rem := a.n - a.cursor; size > rem {
		size = rem
	}
	size -= size % a.align
	if size <= 0 {
		a.done = true
		return 0, 0, false, false
	}
	a.pending = true
	a.pendLo, a.pendHi = a.cursor, a.cursor+size
	a.pendZero = a.zeroOnlyNext()
	return a.pendLo, a.pendHi, a.pendZero, true
}

// Absorb merges the pending wave's tallies (one per sweep, produced by
// TallyRange over exactly the range and kind Next returned) and advances
// the stopping rule.
func (a *Adaptive) Absorb(tallies []SweepTally) error {
	if !a.pending {
		return fmt.Errorf("yield: Absorb without a pending wave")
	}
	if err := CheckWave(a.sweeps, tallies, a.pendHi-a.pendLo, a.pendZero); err != nil {
		return err
	}
	for i, t := range tallies {
		if a.pendZero {
			for j, c := range t.FirstZero {
				a.zonly[i][j] += c
			}
		} else if err := a.joint[i].Merge(t); err != nil {
			return err
		}
	}
	a.cursor = a.pendHi
	a.waves++
	a.nextSize *= 2
	a.pending = false
	if a.allMet() {
		a.met, a.done = true, true
	}
	return nil
}

// SamplesUsed returns the number of chips realized so far.
func (a *Adaptive) SamplesUsed() int { return a.cursor }

// Waves returns the number of completed waves.
func (a *Adaptive) Waves() int { return a.waves }

// Met reports whether the rule stopped because every threshold reached the
// requested precision (as opposed to exhausting the sample cap).
func (a *Adaptive) Met() bool { return a.met }

// Done reports whether the rule has stopped.
func (a *Adaptive) Done() bool { return a.done }

// sched returns the peeking-corrected spending schedule.
func (a *Adaptive) sched() stat.SeqSchedule {
	return stat.SeqSchedule{Alpha: 1 - a.Prec.Conf}
}

// tallyCums folds sweep si's histograms into cumulative pass counts per
// threshold: zero passes over all n1 samples, tuned passes over the n2
// joint samples, and the rescue increments D = tuned − zero over the same
// joint samples (a Bernoulli count, since a tuned pass subsumes a zero
// pass chip by chip).
func (a *Adaptive) tallyCums(si int) (passZ, passT, passD []int, n1, n2 int) {
	nT := len(a.sweeps[si].Ts)
	passZ = make([]int, nT)
	passT = make([]int, nT)
	passD = make([]int, nT)
	cz, ct, cjz := 0, 0, 0
	for i := 0; i < nT; i++ {
		cjz += a.joint[si].FirstZero[i]
		ct += a.joint[si].FirstTuned[i]
		cz += a.joint[si].FirstZero[i] + a.zonly[si][i]
		passZ[i] = cz
		passT[i] = ct
		passD[i] = ct - cjz
	}
	n2 = a.joint[si].Chips()
	n1 = n2
	for _, c := range a.zonly[si] {
		n1 += c
	}
	return
}

// point assembles the two estimates at one threshold under significance
// alpha. Original spends its whole budget directly. Tuned reports the
// tighter of two valid intervals: the direct estimate at alpha/2, or the
// control-variate form — step-1 rate over all n1 samples plus rescue rate
// over the n2 joint samples, each at alpha/4 — whose interval widths add.
// Both splits are union bounds, so either report covers at 1−alpha.
func (a *Adaptive) point(passZ, passT, passD, n1, n2 int, alpha float64) (orig, tuned PointEstimate) {
	b := a.Prec.Bound
	orig = PointEstimate{
		Estimate:  rate(passZ, n1),
		HalfWidth: b.HalfWidth(passZ, n1, alpha),
		Samples:   n1,
	}
	hwDir := b.HalfWidth(passT, n2, alpha/2)
	hwCV := b.HalfWidth(passZ, n1, alpha/4) + b.HalfWidth(passD, n2, alpha/4)
	if hwCV < hwDir {
		est := rate(passZ, n1) + rate(passD, n2)
		if est > 1 {
			est = 1
		}
		tuned = PointEstimate{Estimate: est, HalfWidth: hwCV, Samples: n1, CV: true}
	} else {
		tuned = PointEstimate{Estimate: rate(passT, n2), HalfWidth: hwDir, Samples: n2}
	}
	return orig, tuned
}

func rate(pass, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(pass) / float64(n)
}

// allMet reports whether every threshold of every sweep is within Eps at
// the current check's spending budget.
func (a *Adaptive) allMet() bool {
	alpha := a.sched().AlphaAt(a.waves)
	for si := range a.sweeps {
		passZ, passT, passD, n1, n2 := a.tallyCums(si)
		for i := range passZ {
			orig, tuned := a.point(passZ[i], passT[i], passD[i], n1, n2, alpha)
			if orig.HalfWidth > a.Prec.Eps || tuned.HalfWidth > a.Prec.Eps {
				return false
			}
		}
	}
	return true
}

// zeroOnlyNext decides the kind of the next wave. A joint wave is needed
// only when some tuned threshold is still unmet AND its rescue-rate term
// would stay too wide (> Eps/2) at the next check's budget — otherwise
// extending the step-1 horizon alone (no rescue solver) lets the
// control-variate form converge: its width tends to the rescue term as the
// step-1 term vanishes.
func (a *Adaptive) zeroOnlyNext() bool {
	n2 := a.joint[0].Chips()
	if n2 == 0 {
		return false // nothing to control against yet: first wave is joint
	}
	alphaNext := a.sched().AlphaAt(a.waves + 1)
	alphaCur := a.sched().AlphaAt(a.waves)
	b := a.Prec.Bound
	for si := range a.sweeps {
		passZ, passT, passD, n1, n2 := a.tallyCums(si)
		for i := range passZ {
			_, tuned := a.point(passZ[i], passT[i], passD[i], n1, n2, alphaCur)
			if tuned.HalfWidth <= a.Prec.Eps {
				continue
			}
			if b.HalfWidth(passD[i], n2, alphaNext/4) > a.Prec.Eps/2 {
				return false
			}
		}
	}
	return true
}

// Reports returns the adaptive reports at the final check's budget.
func (a *Adaptive) Reports() []AdaptiveReport {
	w := a.waves
	if w < 1 {
		w = 1
	}
	alpha := a.sched().AlphaAt(w)
	out := make([]AdaptiveReport, len(a.sweeps))
	for si, sw := range a.sweeps {
		passZ, passT, passD, n1, n2 := a.tallyCums(si)
		rep := AdaptiveReport{
			Ts:           append([]float64(nil), sw.Ts...),
			Original:     make([]PointEstimate, len(sw.Ts)),
			Tuned:        make([]PointEstimate, len(sw.Ts)),
			SamplesUsed:  n1,
			JointSamples: n2,
			Waves:        a.waves,
			Met:          a.met,
			Eps:          a.Prec.Eps,
			Conf:         a.Prec.Conf,
		}
		for i := range sw.Ts {
			rep.Original[i], rep.Tuned[i] = a.point(passZ[i], passT[i], passD[i], n1, n2, alpha)
		}
		out[si] = rep
	}
	return out
}

// EvaluateManyAdaptive drives the adaptive wave loop in-process over
// copies of eng, each wave's with the Stratify the request sets: the
// stratified universe differs from the plain one at the same seed. eng
// itself is only read, so it stays fit for fixed-n passes and for passes
// already running on it.
func EvaluateManyAdaptive(eng *mc.Engine, n int, prec Precision, sweeps ...*SweepEvaluator) ([]AdaptiveReport, error) {
	if _, err := prec.norm(); err != nil {
		return nil, err // an inactive prec would silently run fixed-n
	}
	stream := func(strata int) mc.Source {
		e := *eng
		e.Stratify = strata
		return &e
	}
	_, reps, err := Drive(context.Background(), n, prec, sweeps, LocalTally(stream, sweeps...))
	return reps, err
}
