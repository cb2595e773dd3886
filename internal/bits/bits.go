// Package bits implements the dynamic bit-capacity analysis of paper §2.3.
//
// Every runtime value carries a shadow mask of the same width in which a set
// bit means "this data bit may contain secret information". For each basic
// operation the package computes a conservative mask for the result from the
// masks and concrete values of the operands. The analysis is the bit-level
// tainting that Valgrind Memcheck uses for undefined-value tracking, adapted
// to secrecy: a public bit is one whose value is fully determined by public
// information.
//
// The amount of secret information that can flow through a value is bounded
// by the number of set bits in its mask (Count), which is what the taint
// engine uses as edge capacities in the flow graph.
package bits

import mbits "math/bits"

// Mask is a 32-bit secrecy mask: bit i set means bit i of the shadowed value
// may depend on secret input.
type Mask uint32

// All is the fully-secret mask for a 32-bit value.
const All Mask = 0xFFFFFFFF

// ByteMask returns the fully-secret mask for the low n bytes (n in 1..4).
func ByteMask(n int) Mask {
	if n >= 4 {
		return All
	}
	return Mask(1)<<(8*uint(n)) - 1
}

// Count returns the number of potentially-secret bits in m.
func Count(m Mask) int { return mbits.OnesCount32(uint32(m)) }

// Secret reports whether any bit of m is secret.
func Secret(m Mask) bool { return m != 0 }

// upFrom returns a mask with every bit at or above the lowest set bit of m.
// It conservatively models carry propagation: a carry originating at the
// lowest secret bit can disturb every higher bit, but never a lower one.
func upFrom(m Mask) Mask {
	if m == 0 {
		return 0
	}
	low := uint(mbits.TrailingZeros32(uint32(m)))
	return All << low
}

// And computes the result mask for r = a & b given operand masks and the
// concrete operand values. A result bit is public when either operand
// contributes a public 0 at that position (forcing the result to 0), or when
// both operands are public there.
func And(ma, mb Mask, va, vb uint32) Mask {
	// Secret result bits: both secret, or one secret while the other is a
	// public 1 (so the secret bit passes through).
	return (ma & mb) | (ma & ^mb & Mask(vb)) | (mb & ^ma & Mask(va))
}

// Or computes the result mask for r = a | b. Dual of And: a public 1 forces
// the result bit to 1 regardless of the other operand.
func Or(ma, mb Mask, va, vb uint32) Mask {
	return (ma & mb) | (ma & ^mb & ^Mask(vb)) | (mb & ^ma & ^Mask(va))
}

// Xor computes the result mask for r = a ^ b: a secret bit in either operand
// makes the result bit secret (xor never absorbs).
func Xor(ma, mb Mask) Mask { return ma | mb }

// Not computes the result mask for r = ^a.
func Not(ma Mask) Mask { return ma }

// fill returns a mask covering every bit position at or below the highest
// set bit of x (truncated to 32 bits). For a contiguous integer interval
// [min, max], all values agree on the bits above the highest bit of
// min ^ max; every lower bit can vary.
func fill(x uint64) Mask {
	if x == 0 {
		return 0
	}
	n := mbits.Len64(x)
	if n >= 32 {
		return All
	}
	return Mask(uint32(1)<<uint(n) - 1)
}

// Add computes the result mask for r = a + b. The sum is monotone in each
// secret bit, so it ranges over the interval [min, max] obtained by setting
// all secret bits to 0 and to 1 respectively; result bits above the
// interval's common prefix are fixed by public information, while lower
// bits (and the operand's own secret positions) may vary — the
// interval-based rule Memcheck's expensive add uses.
func Add(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	min := uint64(va&^uint32(ma)) + uint64(vb&^uint32(mb))
	max := uint64(va|uint32(ma)) + uint64(vb|uint32(mb))
	// Carries only propagate upward, so bits below the lowest secret
	// operand bit stay public regardless of the interval.
	return (ma | mb | fill(min^max)) & upFrom(ma|mb)
}

// Sub computes the result mask for r = a - b with the same interval rule
// (the difference is monotone increasing in a's secret bits and decreasing
// in b's). A sign change between the extremes makes the 64-bit patterns
// differ at the top, which degrades soundly to a fully-secret result.
func Sub(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	min := int64(va&^uint32(ma)) - int64(vb|uint32(mb))
	max := int64(va|uint32(ma)) - int64(vb&^uint32(mb))
	// Borrows, like carries, only propagate upward.
	return (ma | mb | fill(uint64(min)^uint64(max))) & upFrom(ma|mb)
}

// Mul computes the result mask for r = a * b. A public zero operand forces a
// public zero result. Otherwise a result bit can be secret only at or above
// the position of the lowest secret partial product: a secret bit of one
// operand times the lowest possibly-set bit of the other (where a secret bit
// counts as possibly set). Every lower partial product is a product of
// public bits.
func Mul(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	if ma == 0 && va == 0 {
		return 0 // public zero times anything
	}
	if mb == 0 && vb == 0 {
		return 0
	}
	// Lowest possibly-set bit of an operand (secret bits may be 1).
	act := func(m Mask, v uint32) int { return mbits.TrailingZeros32(v | uint32(m)) }
	shift := 32
	if ma != 0 {
		if s := mbits.TrailingZeros32(uint32(ma)) + act(mb, vb); s < shift {
			shift = s
		}
	}
	if mb != 0 {
		if s := mbits.TrailingZeros32(uint32(mb)) + act(ma, va); s < shift {
			shift = s
		}
	}
	if shift >= 32 {
		return 0
	}
	return All << uint(shift)
}

// Div computes the result mask for r = a / b (or a % b) when no interval
// reasoning applies: any secrecy in either operand makes the whole result
// secret; two public operands give a public result.
func Div(ma, mb Mask) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	return All
}

// DivU computes the result mask for unsigned r = a / b. With a public
// divisor, the quotient is monotone in the dividend, so the interval rule
// applies; a secret divisor mixes bits arbitrarily.
func DivU(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	if mb != 0 || vb == 0 {
		return Div(ma, mb)
	}
	min := uint64(va&^uint32(ma)) / uint64(vb)
	max := uint64(va|uint32(ma)) / uint64(vb)
	return fill(min ^ max)
}

// ModU computes the result mask for unsigned r = a % b. With a public
// divisor the remainder lies in [0, b), so only the low bits can be secret.
func ModU(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	if mb != 0 || vb == 0 {
		return Div(ma, mb)
	}
	return fill(uint64(vb - 1))
}

// signedBounds returns the extreme signed dividends over the secret bits:
// the minimum sets a secret sign bit and clears the rest; the maximum does
// the opposite.
func signedBounds(ma Mask, va uint32) (int64, int64) {
	const sign = uint32(0x80000000)
	min := va&^uint32(ma) | (uint32(ma) & sign)
	max := (va | uint32(ma)) &^ (uint32(ma) & sign)
	return int64(int32(min)), int64(int32(max))
}

// DivS computes the result mask for signed r = a / b with the interval
// rule for public positive divisors.
func DivS(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	if mb != 0 || int32(vb) <= 0 {
		return Div(ma, mb)
	}
	lo, hi := signedBounds(ma, va)
	qlo, qhi := lo/int64(int32(vb)), hi/int64(int32(vb))
	return fill(uint64(qlo) ^ uint64(qhi))
}

// ModS computes the result mask for signed r = a % b: with a public
// positive divisor and a provably non-negative dividend it behaves like
// ModU; a possibly-negative dividend makes the sign (and so everything)
// uncertain.
func ModS(ma, mb Mask, va, vb uint32) Mask {
	if ma == 0 && mb == 0 {
		return 0
	}
	if mb != 0 || int32(vb) <= 0 {
		return Div(ma, mb)
	}
	if lo, _ := signedBounds(ma, va); lo < 0 {
		return Div(ma, mb)
	}
	return fill(uint64(vb - 1))
}

// Shl computes the result mask for r = a << b. If the shift amount is
// public, the mask shifts along with the value; a secret shift amount can
// steer any value bit anywhere, so the result is secret wherever the value
// or mask has any set bit pattern (conservatively: fully secret unless the
// shifted operand is a public zero).
func Shl(ma, mb Mask, va, vb uint32) Mask {
	if mb == 0 {
		return ma << (vb & 31)
	}
	if ma == 0 && va == 0 {
		return 0
	}
	return All
}

// Shr computes the result mask for a logical right shift.
func Shr(ma, mb Mask, va, vb uint32) Mask {
	if mb == 0 {
		return ma >> (vb & 31)
	}
	if ma == 0 && va == 0 {
		return 0
	}
	return All
}

// Sar computes the result mask for an arithmetic right shift: the sign bit
// smears into every vacated position, so if it is secret the vacated bits
// are secret too.
func Sar(ma, mb Mask, va, vb uint32) Mask {
	if mb != 0 {
		if ma == 0 && va == 0 {
			return 0
		}
		return All
	}
	s := vb & 31
	m := ma >> s
	if ma&0x80000000 != 0 {
		m |= ^(All >> s) // sign-extension of the secret sign bit
	}
	return m
}

// Cmp computes the result mask for a comparison producing 0 or 1: the single
// result bit is secret iff any operand bit is secret.
func Cmp(ma, mb Mask) Mask {
	if ma|mb != 0 {
		return 1
	}
	return 0
}

// Extract returns the mask for extracting the byte at index i (0 = least
// significant) of a value with mask m, as a byte-width mask.
func Extract(m Mask, i int) Mask { return (m >> uint(8*i)) & 0xFF }

// Insert places the byte-width mask b at byte index i of m.
func Insert(m Mask, b Mask, i int) Mask {
	sh := uint(8 * i)
	return (m &^ (Mask(0xFF) << sh)) | ((b & 0xFF) << sh)
}
