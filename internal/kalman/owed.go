package kalman

import "math"

// Owed covariance steps; the package comment has the contract. For
// Φ = [[1,d],[0,1]] and Q = q·I, j owed steps settle to
//
//	Φʲ P Φʲᵀ + q·[[j + d²(j−1)j(2j−1)/6, d·j(j−1)/2], [d·j(j−1)/2, j]]
//
// and to P + j·q for Φ = [1]. Filter.lag counts them.

// Coast runs steps predicts the way the DKF protocol does between
// corrections, with the same bits in one call as in steps single ones. On
// a poly record each steps x and owes its P step, unless the count is full
// or, on an undeclared record, φ_k is not the record's Φ bit for bit: that
// step settles and runs PredictN(1). A declared record fetches no φ_k and
// books a run of owed steps at once. On any other filter Coast is
// PredictN.
func (f *Filter) Coast(steps int) {
	sh := f.sh
	for steps > 0 && sh.poly {
		j := 1
		if sh.static {
			j = steps
		} else if !sh.isPhi(f.phi(f.k).RawData(), int(f.n)) {
			j = 0
		}
		if j = min(j, math.MaxUint16-int(f.lag)); j == 0 {
			f.PredictN(1) // settles first; refuses a φ of the wrong size
			steps--
			continue
		}
		if f.n == 2 { // for n = 1 x stays
			coastX((*[2]float64)(f.buf), sh.phi[1], j)
		}
		f.k, steps = f.k+j, steps-j
		f.corrected, f.sValid = false, false
		// A single step owed on a phase's P⁺ settles by the cycle.
		if f.lag += uint16(j); f.lag > 1 || f.cy&cyFast != 0 {
			f.cy = 0
		}
	}
	if steps > 0 {
		f.PredictN(steps)
	}
}

// coastX is j >= 1 steps of stepX's bits on x under Φ = [[1,d],[0,1]]:
// dot2's products by one are exact and its zero factors skipped. A step
// adds +0 to x0 and to x1, which changes only a −0, and no sum here is
// −0: after the first step x1, and so d·x1, stay, and each further step
// is x0 + d·x1.
func coastX(x *[2]float64, d float64, j int) {
	x0, x1 := 0+x[0], x[1]
	if d != 0 {
		x0 += float64(d * x1)
		for dx := float64(d * (0 + x1)); j > 1; j-- {
			x0 += dx
		}
	}
	x[0], x[1] = x0, 0+x1
}

// CoastPredicted is Coast(1) then PredictedInto(dst): a reading's step at
// the mirror and the prediction its suppression is decided on. On a line
// record — declared, owing, H = e₁ — it is straight-line code with their
// bits, H x̂ being 1·x0 for n = 1 (−0 stays −0) and 0 + 1·x0 for n = 2. A
// full count takes Coast's settling step.
func (f *Filter) CoastPredicted(dst []float64) []float64 {
	sh := f.sh
	if !sh.line || f.lag == math.MaxUint16 {
		f.Coast(1)
		return f.PredictedInto(dst)
	}
	if f.n == 1 {
		dst[0] = float64(1 * f.buf[0])
	} else {
		x := (*[2]float64)(f.buf)
		coastX(x, sh.phi[1], 1)
		dst[0] = 0 + x[0]
	}
	f.k++
	f.corrected, f.sValid = false, false
	if f.lag++; f.lag > 1 || f.cy&cyFast != 0 {
		f.cy = 0
	}
	return dst
}

// isPhi reports whether phi is the record's Φ, n x n for n <= 2, bit for
// bit.
func (sh *shape) isPhi(phi []float64, n int) bool {
	b := math.Float64bits
	if n == 1 {
		return len(phi) == 1 && b(phi[0]) == b(sh.phi[0])
	}
	return len(phi) == 4 && b(phi[0]) == b(sh.phi[0]) && b(phi[1]) == b(sh.phi[1]) && b(phi[2]) == b(sh.phi[2]) && b(phi[3]) == b(sh.phi[3])
}

// Settle pays what the filter owes into the anchor, which moves to x's
// time, as Correct does first.
func (f *Filter) Settle() {
	if f.lag > 0 {
		f.settle()
	}
}

// settle is Settle on a filter that owes: one step on a phase's P⁺ takes
// the next phase (takePhase), any other debt is paid by owe.
func (f *Filter) settle() {
	if f.lag == 1 && f.cy != 0 {
		f.takePhase()
	} else {
		n := int(f.n)
		f.owe(f.buf[n:n+n*n], int(f.lag))
		f.cy = 0
	}
	f.lag = 0
}

// owe settles j owed steps into p, n x n: the anchor or a copy of it. One
// step is the kernel's own (predictP); more are the closed form, in this
// order, e = j·d, h = j(j − 1)/2 and no product fused:
//
//	n = 1:  p + j·q
//	n = 2:  u = p01 + e·p11,  v = p10 + e·p11
//	        p00 ← ((p00 + e·p10) + e·u) + q·(j + (d·d)·(h·(2j − 1))/3)
//	        p11 ← p11 + q·j
//	        p01 = p10 ← ((u + q·(d·h)) + (v + q·(d·h)))/2
func (f *Filter) owe(p []float64, j int) {
	sh := f.sh
	q := sh.seg(f.buf, segQ)
	if j == 1 {
		predictP(p, q, sh.phi[:len(p)])
		return
	}
	jf, qv := float64(j), q[0]
	if len(p) == 1 {
		p[0] += float64(jf * qv)
		return
	}
	d := sh.phi[1]
	e, h := float64(jf*d), float64(jf*(jf-1))/2
	q00 := float64(qv * (jf + float64(float64(d*d)*float64(h*(float64(2*jf)-1)))/3))
	q01 := float64(qv * float64(d*h))
	u, v := p[1]+float64(e*p[3]), p[2]+float64(e*p[3])
	p[0] = p[0] + float64(e*p[2]) + float64(e*u) + q00
	p[3] += float64(qv * jf)
	p[1] = ((u + q01) + (v + q01)) / 2
	p[2] = p[1]
}
