// Package fmm implements the 2D fast multipole method — the paper's second
// application (SPLASH-2 FMM, 32,768 particles, 29 expansion terms) — with
// all translation operators (P2M, M2M, M2L, L2L, L2P, plus P2L/M2P for the
// adaptive lists) and near-field P2P, in two variants:
//
//   - a uniform quadtree (grid.go, solve.go, dist.go), the default for the
//     paper-table experiments, and
//   - the adaptive Carrier-Greengard-Rokhlin algorithm with U/V/W/X lists
//     (adaptive.go, adist.go), matching SPLASH-2 FMM's actual structure.
//
// Both have sequential references and distributed phases that run under
// the DPA/caching/blocking runtimes. The potential of a charge q at zi is
// q·log(z−zi); expansions follow Greengard & Rokhlin's lemmas.
package fmm

import "math/cmplx"

// maxTerms bounds the expansion order (the paper uses 29).
const maxTerms = 64

// binom is a precomputed table of binomial coefficients C(n, k) for
// n < 2*maxTerms.
var binom [2 * maxTerms][2 * maxTerms]float64

func init() {
	for n := 0; n < 2*maxTerms; n++ {
		binom[n][0] = 1
		for k := 1; k <= n; k++ {
			binom[n][k] = binom[n-1][k-1] + binom[n-1][k]
		}
	}
}

// Multipole is a truncated multipole expansion about Center:
// φ(z) = Q·log(z−Center) + Σ_{k=1..p} A[k-1]/(z−Center)^k.
type Multipole struct {
	Center complex128
	Q      float64
	A      []complex128
}

// NewMultipole returns a zero expansion with p terms.
func NewMultipole(center complex128, p int) *Multipole {
	return &Multipole{Center: center, A: make([]complex128, p)}
}

// AddSource accumulates a charge q at position z into the expansion (P2M).
func (m *Multipole) AddSource(z complex128, q float64) {
	d := z - m.Center
	m.Q += q
	pw := complex(1, 0)
	for k := 1; k <= len(m.A); k++ {
		pw *= d
		m.A[k-1] += complex(-q/float64(k), 0) * pw
	}
}

// Eval evaluates the expansion's complex potential at z (valid only well
// outside the source cell).
func (m *Multipole) Eval(z complex128) complex128 {
	d := z - m.Center
	v := complex(m.Q, 0) * cmplx.Log(d)
	inv := 1 / d
	pw := complex(1, 0)
	for k := 0; k < len(m.A); k++ {
		pw *= inv
		v += m.A[k] * pw
	}
	return v
}

// EvalDeriv evaluates φ'(z) (the complex field) of the expansion at z.
func (m *Multipole) EvalDeriv(z complex128) complex128 {
	d := z - m.Center
	inv := 1 / d
	v := complex(m.Q, 0) * inv
	pw := inv
	for k := 1; k <= len(m.A); k++ {
		pw *= inv
		v -= complex(float64(k), 0) * m.A[k-1] * pw
	}
	return v
}

// Shift translates child expansion c into m's center and accumulates (M2M,
// Greengard's Lemma 2.3). Both must have the same order.
func (m *Multipole) Shift(c *Multipole) {
	d := c.Center - m.Center
	m.Q += c.Q
	// d^l table.
	p := len(m.A)
	var buf [maxTerms + 2]complex128
	dp := powers(scratch(buf[:], p+1), d)
	for l := 1; l <= p; l++ {
		b := complex(-c.Q/float64(l), 0) * dp[l]
		for k := 1; k <= l; k++ {
			b += c.A[k-1] * dp[l-k] * complex(binom[l-1][k-1], 0)
		}
		m.A[l-1] += b
	}
}

// Local is a truncated local (Taylor) expansion about Center:
// ψ(z) = Σ_{l=0..p} B[l]·(z−Center)^l.
type Local struct {
	Center complex128
	B      []complex128
}

// NewLocal returns a zero local expansion with p+1 coefficients.
func NewLocal(center complex128, p int) *Local {
	return &Local{Center: center, B: make([]complex128, p+1)}
}

// AddMultipole converts multipole m into a local expansion about l.Center
// and accumulates (M2L, Greengard's Lemma 2.4). Valid when the cells are
// well separated.
func (l *Local) AddMultipole(m *Multipole) {
	// zm = m.Center − l.Center: the source center seen from the local
	// center. The expansion of log(z − zm + ...) around 0 in t = z−Center.
	zm := m.Center - l.Center
	p := len(m.A)
	inv := 1 / zm
	// ak / zm^k with alternating sign folded in: term_k = A[k-1]·(−1)^k/zm^k.
	var buf [maxTerms + 2]complex128
	terms := scratch(buf[:], p+1)
	pw := complex(1, 0)
	sign := 1.0
	for k := 1; k <= p; k++ {
		pw *= inv
		sign = -sign
		terms[k] = m.A[k-1] * pw * complex(sign, 0)
	}
	// b0 = Q·log(−zm) + Σ_k term_k.
	b0 := complex(m.Q, 0) * cmplx.Log(-zm)
	for k := 1; k <= p; k++ {
		b0 += terms[k]
	}
	l.B[0] += b0
	// b_l = −Q/(l·zm^l) + (1/zm^l)·Σ_k term_k·C(l+k−1, k−1).
	pwl := complex(1, 0)
	for ll := 1; ll < len(l.B); ll++ {
		pwl *= inv
		b := complex(-m.Q/float64(ll), 0) * pwl
		var s complex128
		for k := 1; k <= p; k++ {
			s += terms[k] * complex(binom[ll+k-1][k-1], 0)
		}
		l.B[ll] += b + s*pwl
	}
}

// ShiftFrom accumulates parent local expansion pl translated to l.Center
// (L2L, Greengard's Lemma 2.5).
func (l *Local) ShiftFrom(pl *Local) {
	d := l.Center - pl.Center
	n := len(pl.B)
	var buf [maxTerms + 2]complex128
	dp := powers(scratch(buf[:], n+1), d)
	for ll := 0; ll < len(l.B) && ll < n; ll++ {
		var c complex128
		for k := ll; k < n; k++ {
			c += pl.B[k] * complex(binom[k][ll], 0) * dp[k-ll]
		}
		l.B[ll] += c
	}
}

// Eval evaluates the local expansion's complex potential at z.
func (l *Local) Eval(z complex128) complex128 {
	t := z - l.Center
	var v complex128
	for k := len(l.B) - 1; k >= 0; k-- {
		v = v*t + l.B[k]
	}
	return v
}

// EvalDeriv evaluates ψ'(z) at z.
func (l *Local) EvalDeriv(z complex128) complex128 {
	t := z - l.Center
	var v complex128
	for k := len(l.B) - 1; k >= 1; k-- {
		v = v*t + complex(float64(k), 0)*l.B[k]
	}
	return v
}

// scratch returns n zeroed coefficients: the first n of buf, a zero array
// on the caller's stack sized for maxTerms, or a new slice for a longer
// expansion.
func scratch(buf []complex128, n int) []complex128 {
	if n > len(buf) {
		return make([]complex128, n)
	}
	return buf[:n]
}

// powers fills dp with [d^0, d^1, ..., d^(len(dp)-1)] and returns it.
func powers(dp []complex128, d complex128) []complex128 {
	dp[0] = 1
	for i := 1; i < len(dp); i++ {
		dp[i] = dp[i-1] * d
	}
	return dp
}

// DirectPotential returns the complex potential at z due to charges q at
// positions zs, skipping index self (-1 for none).
func DirectPotential(z complex128, zs []complex128, q []float64, self int) complex128 {
	var v complex128
	for i := range zs {
		if i == self {
			continue
		}
		v += complex(q[i], 0) * cmplx.Log(z-zs[i])
	}
	return v
}

// DirectField returns the complex field φ'(z) at z due to the charges,
// skipping index self.
func DirectField(z complex128, zs []complex128, q []float64, self int) complex128 {
	var v complex128
	for i := range zs {
		if i == self {
			continue
		}
		v += complex(q[i], 0) / (z - zs[i])
	}
	return v
}

// AddSourcePoint accumulates a point charge q at zs directly into the local
// expansion (P2L, used for the adaptive algorithm's X list):
// q·log(z−zs) expanded about Center in t = z−Center with d = Center−zs:
// log d + Σ_{k≥1} (−1)^{k+1} (t/d)^k / k.
func (l *Local) AddSourcePoint(zs complex128, q float64) {
	d := l.Center - zs
	l.B[0] += complex(q, 0) * cmplx.Log(d)
	inv := 1 / d
	pw := complex(1, 0)
	sign := 1.0
	for k := 1; k < len(l.B); k++ {
		pw *= inv
		l.B[k] += complex(sign*q/float64(k), 0) * pw
		sign = -sign
	}
}
