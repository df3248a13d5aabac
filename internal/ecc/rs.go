// Package ecc implements a systematic Reed-Solomon code over GF(256) with
// errors-and-erasures decoding (Berlekamp-Massey, Chien search, Forney).
//
// Role in the reproduction: the unique-list-recoverable code of the paper's
// Theorem 3.6 (Appendix B) needs "a (standard) error-correcting code with
// constant rate that can correct an Ω(1)-fraction of errors" — the paper
// cites linear-time Spielman codes. At the block lengths that arise here
// (M = O(log|X|/loglog|X|) symbols, always ≤ 255) Reed-Solomon is the better
// engineering choice: strictly optimal distance (MDS) at every rate and
// O(M²) decoding that is negligible at polylog block length. See DESIGN.md
// substitution S1.
//
// A codeword of n symbols with k data symbols corrects e errors plus f
// erasures whenever 2e + f <= n - k.
package ecc

import (
	"errors"
	"fmt"

	"ldphh/internal/gf256"
)

// Code is a Reed-Solomon code with fixed (n, k). Safe for concurrent use
// after construction.
type Code struct {
	n, k int
	gen  []byte // generator polynomial, degree n-k
	// parity[j*k+i] is parity symbol j of the codeword of the i-th unit
	// message. The code is linear, so parity symbol j of any message is
	// the GF(256) dot product of the message with row j (see Symbol).
	parity []byte
}

// ErrTooManyCorruptions is returned when decoding fails because the
// corruption pattern exceeds the code's capability.
var ErrTooManyCorruptions = errors.New("ecc: corruption beyond code capability")

// New constructs an RS(n, k) code: codewords of n symbols carrying k data
// symbols. Requires 0 < k < n <= 255.
func New(n, k int) (*Code, error) {
	if k <= 0 || n <= k || n > 255 {
		return nil, fmt.Errorf("ecc: invalid parameters n=%d k=%d (need 0 < k < n <= 255)", n, k)
	}
	// gen(x) = Π_{i=0}^{n-k-1} (x - α^i)
	gen := []byte{1}
	for i := 0; i < n-k; i++ {
		gen = gf256.PolyMul(gen, []byte{gf256.Exp(i), 1})
	}
	c := &Code{n: n, k: k, gen: gen}
	nParity := n - k
	c.parity = make([]byte, nParity*k)
	unit := make([]byte, k)
	for i := 0; i < k; i++ {
		unit[i] = 1
		cw, err := c.Encode(unit)
		if err != nil {
			return nil, err
		}
		unit[i] = 0
		for j := 0; j < nParity; j++ {
			c.parity[j*k+i] = cw[j]
		}
	}
	return c, nil
}

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols.
func (c *Code) K() int { return c.k }

// MaxErrors returns the number of symbol errors correctable with no
// erasures: floor((n-k)/2).
func (c *Code) MaxErrors() int { return (c.n - c.k) / 2 }

// Encode returns the systematic codeword for msg (len k): the first k
// symbols are msg itself, followed by n-k parity symbols.
func (c *Code) Encode(msg []byte) ([]byte, error) {
	if len(msg) != c.k {
		return nil, fmt.Errorf("ecc: message length %d, want %d", len(msg), c.k)
	}
	// Treat message as coefficients of m(x)·x^(n-k); remainder mod gen(x)
	// gives parity. Standard synthetic division.
	nParity := c.n - c.k
	rem := make([]byte, nParity)
	for i := c.k - 1; i >= 0; i-- {
		factor := gf256.Add(msg[i], rem[nParity-1])
		copy(rem[1:], rem[:nParity-1])
		rem[0] = 0
		if factor != 0 {
			for j := 0; j < nParity; j++ {
				rem[j] ^= gf256.Mul(factor, c.gen[j])
			}
		}
	}
	cw := make([]byte, c.n)
	// Layout: codeword polynomial cw(x) = Σ cw[i] x^i with parity in the low
	// coefficients and data in the high coefficients, so cw(α^j) = 0.
	copy(cw[:nParity], rem)
	copy(cw[nParity:], msg)
	return cw, nil
}

// Symbol returns codeword symbol pos of msg, equal to Encode(msg)[pos],
// without materializing the codeword: a data position is a message byte and
// a parity position is a k-term dot product with the parity table. msg must
// have length K and pos must lie in [0, N); Symbol does not allocate.
func (c *Code) Symbol(msg []byte, pos int) byte {
	nParity := c.n - c.k
	if pos >= nParity {
		return msg[pos-nParity]
	}
	row := c.parity[pos*c.k : (pos+1)*c.k]
	msg = msg[:len(row)]
	var s byte
	for i, g := range row {
		s ^= gf256.Mul(msg[i], g)
	}
	return s
}

// Decode corrects received in place-free fashion and returns the k data
// symbols. erasures lists symbol positions (0-based, in codeword order) the
// caller knows are unreliable; they may overlap actual errors. Returns
// ErrTooManyCorruptions when the corruption pattern is uncorrectable or
// inconsistent.
func (c *Code) Decode(received []byte, erasures []int) ([]byte, error) {
	if len(received) != c.n {
		return nil, fmt.Errorf("ecc: received length %d, want %d", len(received), c.n)
	}
	nParity := c.n - c.k
	// Dedup erasure positions with a stack bitmap — positions are < n <= 255,
	// so neither the seen set nor the dedup list needs a heap allocation.
	var seen [255]bool
	var dedupBuf [255]int
	dedup := dedupBuf[:0]
	for _, e := range erasures {
		if e < 0 || e >= c.n {
			return nil, fmt.Errorf("ecc: erasure position %d out of range", e)
		}
		if !seen[e] {
			seen[e] = true
			dedup = append(dedup, e)
		}
	}
	erasures = dedup
	if len(erasures) > nParity {
		return nil, ErrTooManyCorruptions
	}

	// Syndromes S_j = r(α^j), j = 0..nParity-1.
	var syndBuf [255]byte
	synd := syndBuf[:nParity]
	allZero := true
	for j := 0; j < nParity; j++ {
		s := gf256.PolyEval(received, gf256.Exp(j))
		synd[j] = s
		if s != 0 {
			allZero = false
		}
	}
	if allZero {
		return append([]byte(nil), received[nParity:]...), nil
	}

	// Erasure locator Γ(x) = Π (1 - α^{pos} x).
	gamma := []byte{1}
	for _, pos := range erasures {
		gamma = gf256.PolyMul(gamma, []byte{1, gf256.Exp(pos)})
	}
	// Modified syndrome polynomial Ξ(x) = Γ(x)·S(x) mod x^{nParity}.
	xi := gf256.PolyMul(gamma, synd)
	if len(xi) > nParity {
		xi = xi[:nParity]
	}

	// Berlekamp-Massey on the modified syndromes finds the error locator σ.
	sigma := berlekampMassey(xi, len(erasures), nParity)
	if sigma == nil {
		return nil, ErrTooManyCorruptions
	}

	// Errata locator Λ = σ·Γ; roots locate both errors and erasures.
	lambda := gf256.PolyMul(sigma, gamma)
	positions := chienSearch(lambda, c.n)
	if len(positions) != len(lambda)-1 {
		// locator degree != number of roots found: decoding failure
		return nil, ErrTooManyCorruptions
	}

	// Errata evaluator Ω(x) = S(x)·Λ(x) mod x^{nParity}.
	omega := gf256.PolyMul(synd, lambda)
	if len(omega) > nParity {
		omega = omega[:nParity]
	}
	lambdaDeriv := gf256.PolyDeriv(lambda)

	out := append([]byte(nil), received...)
	for _, pos := range positions {
		xInv := gf256.Exp(-pos) // α^{-pos}
		num := gf256.PolyEval(omega, xInv)
		den := gf256.PolyEval(lambdaDeriv, xInv)
		if den == 0 {
			return nil, ErrTooManyCorruptions
		}
		// Forney (for syndromes starting at α^0): magnitude = x·Ω(x^-1)/Λ'(x^-1)
		// with x = α^{pos}.
		mag := gf256.Mul(gf256.Exp(pos), gf256.Div(num, den))
		out[pos] ^= mag
	}

	// Verify: all syndromes of the corrected word must vanish.
	for j := 0; j < nParity; j++ {
		if gf256.PolyEval(out, gf256.Exp(j)) != 0 {
			return nil, ErrTooManyCorruptions
		}
	}
	return out[nParity:], nil
}

// berlekampMassey finds the minimal error-locator polynomial for the
// modified syndromes, assuming numErasures positions are already accounted
// for. Returns nil when the implied error count exceeds capability.
func berlekampMassey(synd []byte, numErasures, nParity int) []byte {
	// σ, the previous σ and the update scratch all live in fixed stack
	// buffers: locator degrees stay below 255, and the per-round
	// copy-and-shift allocations were the hottest Decode allocation site.
	var sigmaBuf, prevBuf, tmpBuf [256]byte
	sigma := sigmaBuf[:1]
	prev := prevBuf[:1]
	sigma[0], prev[0] = 1, 1
	var l, m int = 0, 1
	b := byte(1)
	rounds := nParity - numErasures
	for i := 0; i < rounds; i++ {
		idx := i + numErasures
		// discrepancy d = Ξ_idx + Σ_{j=1}^{l} σ_j·Ξ_{idx-j}
		d := byte(0)
		if idx < len(synd) {
			d = synd[idx]
		}
		for j := 1; j <= l && j < len(sigma); j++ {
			if idx-j >= 0 && idx-j < len(synd) {
				d ^= gf256.Mul(sigma[j], synd[idx-j])
			}
		}
		if d == 0 {
			m++
			continue
		}
		coef := gf256.Div(d, b)
		if 2*l <= i {
			// σ <- σ + coef·x^m·prev with prev <- the pre-update σ.
			tl := copy(tmpBuf[:], sigma)
			for need := m + len(prev); len(sigma) < need; {
				sigma = append(sigma, 0)
			}
			for j, v := range prev {
				sigma[m+j] ^= gf256.Mul(coef, v)
			}
			l = i + 1 - l
			prev = prevBuf[:tl]
			copy(prev, tmpBuf[:tl])
			b = d
			m = 1
		} else {
			for need := m + len(prev); len(sigma) < need; {
				sigma = append(sigma, 0)
			}
			for j, v := range prev {
				sigma[m+j] ^= gf256.Mul(coef, v)
			}
			m++
		}
	}
	// Trim trailing zeros.
	for len(sigma) > 1 && sigma[len(sigma)-1] == 0 {
		sigma = sigma[:len(sigma)-1]
	}
	if 2*l > rounds {
		return nil // too many errors for remaining parity budget
	}
	return append([]byte(nil), sigma...)
}

// chienSearch returns the codeword positions pos such that
// lambda(α^{-pos}) = 0, for pos in [0, n), using the incremental Chien
// update: term i of λ(α^{-pos}) is λ_i·α^{-i·pos}, so stepping pos by one
// multiplies term i by the fixed factor α^{-i}. Carrying each nonzero
// term's discrete log turns that step into one subtract-mod-255 and one
// exp-table lookup — against the full Horner evaluation (two log lookups,
// an add and an exp lookup per coefficient) the textbook per-position
// PolyEval costs. Zero coefficients drop out of the scan entirely, and the
// search exits as soon as deg(λ) roots are found, since a degree-d
// polynomial has at most d roots. TestChienDifferential pins the output
// against the textbook search on the full error/erasure grid.
func chienSearch(lambda []byte, n int) []int {
	deg := len(lambda) - 1
	// Gather the nonzero terms once: coefficient degree and running log.
	// Locators have degree <= nParity < 255, so the scratch fits the stack.
	var degs, logs [256]int32
	k := 0
	for i, c := range lambda {
		if c != 0 {
			degs[k] = int32(i % 255) // per-step log decrement, pre-reduced
			logs[k] = int32(gf256.Log(c))
			k++
		}
	}
	if k == 0 {
		// The zero polynomial vanishes everywhere (textbook behavior).
		positions := make([]int, n)
		for pos := range positions {
			positions[pos] = pos
		}
		return positions
	}
	positions := make([]int, 0, deg)
	for pos := 0; pos < n; pos++ {
		var sum byte
		for j := 0; j < k; j++ {
			sum ^= gf256.ExpAt(int(logs[j])) // logs stay reduced to [0, 255)
			// Advance term j to the next position: multiply by α^{-deg_j}.
			l := logs[j] - degs[j]
			if l < 0 {
				l += 255
			}
			logs[j] = l
		}
		if sum == 0 {
			positions = append(positions, pos)
			if len(positions) == deg {
				break
			}
		}
	}
	return positions
}
