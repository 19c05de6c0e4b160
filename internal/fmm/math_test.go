package fmm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randomSources places n charges in a square cell of the given center and
// half-size.
func randomSources(rng *rand.Rand, n int, center complex128, half float64) ([]complex128, []float64) {
	zs := make([]complex128, n)
	q := make([]float64, n)
	for i := range zs {
		zs[i] = center + complex((2*rng.Float64()-1)*half, (2*rng.Float64()-1)*half)
		q[i] = rng.Float64() + 0.1
	}
	return zs, q
}

// relErr returns |a-b| / max(1e-12, |b|).
func relErr(a, b complex128) float64 {
	d := cmplx.Abs(a - b)
	s := cmplx.Abs(b)
	if s < 1e-12 {
		s = 1e-12
	}
	return d / s
}

func TestMultipoleEvalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const p = 20
	center := complex(0.5, 0.5)
	zs, q := randomSources(rng, 30, center, 0.1)
	m := NewMultipole(center, p)
	for i := range zs {
		m.AddSource(zs[i], q[i])
	}
	for _, z := range []complex128{complex(3, 1), complex(-2, -2), complex(0.5, 4)} {
		want := DirectPotential(z, zs, q, -1)
		got := m.Eval(z)
		// log branch cuts can differ by 2πi·Q between summed logs and the
		// expansion; compare real parts (the physical potential) and the
		// field instead.
		if err := math.Abs(real(got)-real(want)) / math.Max(1, math.Abs(real(want))); err > 1e-10 {
			t.Errorf("potential at %v: rel err %g", z, err)
		}
		if err := relErr(m.EvalDeriv(z), DirectField(z, zs, q, -1)); err > 1e-10 {
			t.Errorf("field at %v: rel err %g", z, err)
		}
	}
}

func TestM2MPreservesFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 24
	childCenter := complex(0.25, 0.25)
	parentCenter := complex(0.5, 0.5)
	zs, q := randomSources(rng, 20, childCenter, 0.2)
	child := NewMultipole(childCenter, p)
	for i := range zs {
		child.AddSource(zs[i], q[i])
	}
	parent := NewMultipole(parentCenter, p)
	parent.Shift(child)
	for _, z := range []complex128{complex(4, 0), complex(-3, 2), complex(1, -5)} {
		if err := relErr(parent.EvalDeriv(z), DirectField(z, zs, q, -1)); err > 1e-9 {
			t.Errorf("field after M2M at %v: rel err %g", z, err)
		}
		want := real(DirectPotential(z, zs, q, -1))
		if err := math.Abs(real(parent.Eval(z))-want) / math.Max(1, math.Abs(want)); err > 1e-9 {
			t.Errorf("potential after M2M at %v: rel err %g", z, err)
		}
	}
}

func TestM2MAccumulatesTwoChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const p = 24
	c1, c2 := complex(0.25, 0.25), complex(0.75, 0.75)
	zs1, q1 := randomSources(rng, 10, c1, 0.2)
	zs2, q2 := randomSources(rng, 10, c2, 0.2)
	m1, m2 := NewMultipole(c1, p), NewMultipole(c2, p)
	for i := range zs1 {
		m1.AddSource(zs1[i], q1[i])
	}
	for i := range zs2 {
		m2.AddSource(zs2[i], q2[i])
	}
	parent := NewMultipole(complex(0.5, 0.5), p)
	parent.Shift(m1)
	parent.Shift(m2)
	all := append(append([]complex128{}, zs1...), zs2...)
	qq := append(append([]float64{}, q1...), q2...)
	z := complex(5, 3)
	if err := relErr(parent.EvalDeriv(z), DirectField(z, all, qq, -1)); err > 1e-9 {
		t.Errorf("two-child M2M field: rel err %g", err)
	}
}

func TestM2LWellSeparated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const p = 24
	srcCenter := complex(3, 0) // well separated from target cell at origin
	zs, q := randomSources(rng, 25, srcCenter, 0.4)
	m := NewMultipole(srcCenter, p)
	for i := range zs {
		m.AddSource(zs[i], q[i])
	}
	loc := NewLocal(complex(0, 0), p)
	loc.AddMultipole(m)
	for _, z := range []complex128{complex(0.2, 0.1), complex(-0.3, 0.3), complex(0, -0.4)} {
		if err := relErr(loc.EvalDeriv(z), DirectField(z, zs, q, -1)); err > 1e-8 {
			t.Errorf("M2L field at %v: rel err %g", z, err)
		}
		want := real(DirectPotential(z, zs, q, -1))
		if err := math.Abs(real(loc.Eval(z))-want) / math.Max(1, math.Abs(want)); err > 1e-8 {
			t.Errorf("M2L potential at %v: rel err %g", z, err)
		}
	}
}

func TestL2LPreservesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const p = 24
	srcCenter := complex(0, 4)
	zs, q := randomSources(rng, 15, srcCenter, 0.3)
	m := NewMultipole(srcCenter, p)
	for i := range zs {
		m.AddSource(zs[i], q[i])
	}
	parentLoc := NewLocal(complex(0, 0), p)
	parentLoc.AddMultipole(m)
	childLoc := NewLocal(complex(0.2, -0.2), p)
	childLoc.ShiftFrom(parentLoc)
	for _, z := range []complex128{complex(0.25, -0.15), complex(0.1, -0.3)} {
		want := parentLoc.Eval(z)
		got := childLoc.Eval(z)
		if err := relErr(got, want); err > 1e-9 {
			t.Errorf("L2L eval at %v: rel err %g", z, err)
		}
		if err := relErr(childLoc.EvalDeriv(z), parentLoc.EvalDeriv(z)); err > 1e-8 {
			t.Errorf("L2L deriv at %v: rel err %g", z, err)
		}
	}
}

func TestTruncationErrorDecreasesWithTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	srcCenter := complex(2, 0)
	zs, q := randomSources(rng, 20, srcCenter, 0.45)
	z := complex(0.3, 0.2)
	errFor := func(p int) float64 {
		m := NewMultipole(srcCenter, p)
		for i := range zs {
			m.AddSource(zs[i], q[i])
		}
		loc := NewLocal(complex(0, 0), p)
		loc.AddMultipole(m)
		return relErr(loc.EvalDeriv(z), DirectField(z, zs, q, -1))
	}
	e4, e12, e29 := errFor(4), errFor(12), errFor(29)
	if !(e29 < e12 && e12 < e4) {
		t.Errorf("errors not decreasing: p4=%g p12=%g p29=%g", e4, e12, e29)
	}
	if e29 > 1e-9 {
		t.Errorf("p=29 error too large: %g", e29)
	}
}

func TestEmptyMultipoleIsZero(t *testing.T) {
	m := NewMultipole(complex(3, 0), 10)
	if v := m.EvalDeriv(complex(9, 3)); v != 0 {
		t.Errorf("empty multipole field %v", v)
	}
	loc := NewLocal(0, 10)
	loc.AddMultipole(m)
	if v := loc.Eval(complex(0.1, 0)); v != 0 {
		t.Errorf("local from empty multipole %v", v)
	}
}

func TestBinomialTable(t *testing.T) {
	if binom[5][2] != 10 || binom[10][5] != 252 || binom[4][0] != 1 || binom[4][4] != 1 {
		t.Fatalf("binomial table wrong: %v %v", binom[5][2], binom[10][5])
	}
}

// TestTranslationsAllocateNothing: M2L, M2M and L2L keep their coefficient
// scratch on the stack at the paper's 29 terms, so the interaction phase's
// threads allocate nothing per translation.
func TestTranslationsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const p = 29
	src := NewMultipole(complex(0.1, 0.1), p)
	zs, q := randomSources(rng, 8, src.Center, 0.05)
	for i := range zs {
		src.AddSource(zs[i], q[i])
	}
	parent := NewMultipole(complex(0.2, 0.2), p)
	loc := NewLocal(complex(0.9, 0.9), p)
	child := NewLocal(complex(0.95, 0.95), p)
	for name, f := range map[string]func(){
		"AddMultipole": func() { loc.AddMultipole(src) },
		"Shift":        func() { parent.Shift(src) },
		"ShiftFrom":    func() { child.ShiftFrom(loc) },
	} {
		if a := testing.AllocsPerRun(10, f); a != 0 {
			t.Errorf("%s allocates %v times per call", name, a)
		}
	}
}
