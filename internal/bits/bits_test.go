package bits

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"flowcheck/internal/vm"
)

func TestCount(t *testing.T) {
	cases := []struct {
		m    Mask
		want int
	}{
		{0, 0}, {1, 1}, {0xFF, 8}, {All, 32}, {0x80000000, 1}, {0x0F0F, 8},
	}
	for _, c := range cases {
		if got := Count(c.m); got != c.want {
			t.Errorf("Count(%#x) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestByteMask(t *testing.T) {
	if ByteMask(1) != 0xFF || ByteMask(2) != 0xFFFF || ByteMask(4) != All {
		t.Fatalf("ByteMask wrong: %#x %#x %#x", ByteMask(1), ByteMask(2), ByteMask(4))
	}
}

func TestAndPublicZeroWins(t *testing.T) {
	// secret & public-0 -> public 0
	if m := And(All, 0, 0xDEADBEEF, 0); m != 0 {
		t.Errorf("And(secret, public 0) = %#x, want 0", m)
	}
	// secret & public-1 -> secret passthrough
	if m := And(0xFF, 0, 0, 0x0F); m != 0x0F {
		t.Errorf("And(secret ff, public 0f) = %#x, want 0f", m)
	}
	// both secret -> secret
	if m := And(0xF0, 0x3C, 0, 0); m&0x30 != 0x30 {
		t.Errorf("overlap bits should be secret: %#x", m)
	}
}

func TestOrPublicOneWins(t *testing.T) {
	if m := Or(All, 0, 0, 0xFFFFFFFF); m != 0 {
		t.Errorf("Or(secret, public all-ones) = %#x, want 0", m)
	}
	if m := Or(0xFF, 0, 0, 0xF0); m != 0x0F {
		t.Errorf("Or mask = %#x, want 0x0F", m)
	}
}

func TestAddIntervalRule(t *testing.T) {
	// Secret bit 0 added to a public even value: only bit 0 can differ.
	if m := Add(1, 0, 0x30, 0); m != 1 {
		t.Errorf("Add('0' + 1-bit secret) = %#x, want 1", m)
	}
	// Secret bit 0 added to a public odd value: a carry reaches bit 1.
	if m := Add(1, 0, 0, 1); m != 3 {
		t.Errorf("Add(secret bit0, public 1) = %#x, want 3", m)
	}
	// Secret top bit only: carry out is discarded.
	if m := Add(0x80000000, 0, 0, 0); m != 0x80000000 {
		t.Errorf("Add(top bit secret) = %#x, want 0x80000000", m)
	}
	if m := Add(0, 0, 123, 456); m != 0 {
		t.Errorf("Add(public,public) = %#x, want 0", m)
	}
	// Two secret low bytes: carries can reach bit 8 but not beyond.
	if m := Add(0xFF, 0xFF, 0, 0); m != 0x1FF {
		t.Errorf("Add(two secret bytes) = %#x, want 0x1FF", m)
	}
}

func TestSubIntervalRule(t *testing.T) {
	if m := Sub(0, 0, 9, 5); m != 0 {
		t.Errorf("public-public = %#x", m)
	}
	// 0x100 - (secret byte): borrow can clear bit 8.
	if m := Sub(0, 0xFF, 0x100, 0); m != 0x1FF {
		t.Errorf("Sub = %#x, want 0x1FF", m)
	}
	// Possible sign change makes everything secret.
	if m := Sub(0, 0xFF, 0, 0); m != All {
		t.Errorf("Sub(0 - secret) = %#x, want all (wraparound)", m)
	}
	// Negation of a known-for-sure nonzero range... the rule stays sound by
	// saturating when the 64-bit patterns diverge at the top.
	if m := Sub(1, 0, 0x10, 0x10); m == 0 {
		t.Errorf("Sub with secret minuend bit must not be public")
	}
}

func TestShiftByPublicAmount(t *testing.T) {
	if m := Shl(0xFF, 0, 0, 8); m != 0xFF00 {
		t.Errorf("Shl = %#x, want 0xFF00", m)
	}
	if m := Shr(0xFF00, 0, 0, 8); m != 0xFF {
		t.Errorf("Shr = %#x, want 0xFF", m)
	}
	// Arithmetic shift with secret sign bit smears secrecy.
	if m := Sar(0x80000000, 0, 0, 4); m != 0xF8000000 {
		t.Errorf("Sar = %#x, want 0xF8000000", m)
	}
	// Public value, no secret: stays public.
	if m := Sar(0, 0, 0x80000000, 4); m != 0 {
		t.Errorf("Sar public = %#x, want 0", m)
	}
}

func TestShiftBySecretAmount(t *testing.T) {
	if m := Shl(0, All, 1, 0); m != All {
		t.Errorf("Shl by secret amount of nonzero value should be fully secret, got %#x", m)
	}
	// Shifting a public zero reveals nothing.
	if m := Shl(0, All, 0, 0); m != 0 {
		t.Errorf("Shl of public zero = %#x, want 0", m)
	}
}

func TestMul(t *testing.T) {
	if m := Mul(0, 0, 123, 456); m != 0 {
		t.Errorf("public*public = %#x, want 0", m)
	}
	if m := Mul(All, 0, 0, 0); m != 0 {
		t.Errorf("secret * public-zero = %#x, want 0", m)
	}
	// secret low bits times public 4 (== shift by 2): bits >= 2 secret.
	if m := Mul(1, 0, 0, 4); m != 0xFFFFFFFC {
		t.Errorf("Mul = %#x, want 0xFFFFFFFC", m)
	}
}

func TestDiv(t *testing.T) {
	if m := Div(0, 0); m != 0 {
		t.Errorf("public/public = %#x", m)
	}
	if m := Div(1, 0); m != All {
		t.Errorf("secret/public should be fully secret, got %#x", m)
	}
}

func TestCmp(t *testing.T) {
	if m := Cmp(0, 0); m != 0 {
		t.Errorf("Cmp public = %#x", m)
	}
	if m := Cmp(0x100, 0); m != 1 {
		t.Errorf("Cmp secret = %#x, want 1", m)
	}
}

func TestExtractInsert(t *testing.T) {
	m := Mask(0xAABBCCDD)
	if got := Extract(m, 0); got != 0xDD {
		t.Errorf("Extract(0) = %#x", got)
	}
	if got := Extract(m, 3); got != 0xAA {
		t.Errorf("Extract(3) = %#x", got)
	}
	if got := Insert(m, 0x11, 1); got != 0xAABB11DD {
		t.Errorf("Insert = %#x", got)
	}
}

// Soundness property: if two operand pairs agree on all public bits, the
// results of an operation must agree on all bits the transfer function marks
// public. We exercise this for AND/OR/XOR/ADD by flipping only secret bits.
func TestSoundnessProperty(t *testing.T) {
	type opFn struct {
		name string
		mask func(ma, mb Mask, va, vb uint32) Mask
		eval func(a, b uint32) uint32
	}
	ops := []opFn{
		{"and", And, func(a, b uint32) uint32 { return a & b }},
		{"or", Or, func(a, b uint32) uint32 { return a | b }},
		{"xor", func(ma, mb Mask, _, _ uint32) Mask { return Xor(ma, mb) }, func(a, b uint32) uint32 { return a ^ b }},
		{"add", Add, func(a, b uint32) uint32 { return a + b }},
		{"sub", Sub, func(a, b uint32) uint32 { return a - b }},
		{"mul", Mul, func(a, b uint32) uint32 { return a * b }},
	}
	for _, op := range ops {
		op := op
		prop := func(va, vb uint32, ma, mb Mask, fa, fb uint32) bool {
			// Alternate values that differ from va/vb only in secret bits.
			va2 := va ^ (fa & uint32(ma))
			vb2 := vb ^ (fb & uint32(mb))
			rm := op.mask(ma, mb, va, vb)
			r1 := op.eval(va, vb)
			r2 := op.eval(va2, vb2)
			// All public result bits must be identical.
			return (r1^r2)&^uint32(rm) == 0
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: soundness violated: %v", op.name, err)
		}
	}
}

// The same soundness property for shifts, where the transfer function also
// inspects concrete values.
func TestShiftSoundnessProperty(t *testing.T) {
	prop := func(va, vb uint32, ma, mb Mask, fa, fb uint32) bool {
		va2 := va ^ (fa & uint32(ma))
		vb2 := vb ^ (fb & uint32(mb))
		ok := true
		{
			rm := Shl(ma, mb, va, vb)
			if ((va<<(vb&31))^(va2<<(vb2&31)))&^uint32(rm) != 0 {
				ok = false
			}
		}
		{
			rm := Shr(ma, mb, va, vb)
			if ((va>>(vb&31))^(va2>>(vb2&31)))&^uint32(rm) != 0 {
				ok = false
			}
		}
		{
			rm := Sar(ma, mb, va, vb)
			r1 := uint32(int32(va) >> (vb & 31))
			r2 := uint32(int32(va2) >> (vb2 & 31))
			if (r1^r2)&^uint32(rm) != 0 {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDivIntervalRules(t *testing.T) {
	// Block-average pattern: a 13-bit secret sum divided by public 25
	// yields an ~8-bit quotient.
	if m := DivU(0x1FFF, 0, 0, 25); Count(m) > 9 {
		t.Errorf("DivU(13-bit / 25) = %#x (%d bits), want <= 9 bits", m, Count(m))
	}
	if m := DivU(0, 0, 100, 25); m != 0 {
		t.Errorf("public/public = %#x", m)
	}
	// Secret divisor: fully secret.
	if m := DivU(0, 1, 100, 3); m != All {
		t.Errorf("secret divisor = %#x, want all", m)
	}
	// Modulo by a public constant bounds the result bits.
	if m := ModU(All, 0, 0, 10); m != 0x0F {
		t.Errorf("ModU(secret, 10) = %#x, want 0x0F", m)
	}
	// Signed with possibly-negative dividend saturates.
	if m := ModS(0x80000000, 0, 0, 10); m != All {
		t.Errorf("ModS with secret sign = %#x, want all", m)
	}
	if m := DivS(0xFF, 0, 0, 16); Count(m) > 5 {
		t.Errorf("DivS(8-bit / 16) = %#x, too wide", m)
	}
}

// Division/modulo soundness property under the same flip-secret-bits model.
func TestDivSoundnessProperty(t *testing.T) {
	prop := func(va, vb uint32, ma, mb Mask, fa, fb uint32) bool {
		va2 := va ^ (fa & uint32(ma))
		vb2 := vb ^ (fb & uint32(mb))
		if vb == 0 || vb2 == 0 {
			return true // the VM traps before these execute
		}
		ok := true
		if m := DivU(ma, mb, va, vb); (va/vb^va2/vb2)&^uint32(m) != 0 {
			ok = false
		}
		if m := ModU(ma, mb, va, vb); (va%vb^va2%vb2)&^uint32(m) != 0 {
			ok = false
		}
		sdiv := func(a, b uint32) uint32 {
			if int32(a) == -1<<31 && int32(b) == -1 {
				return a
			}
			return uint32(int32(a) / int32(b))
		}
		smod := func(a, b uint32) uint32 {
			if int32(a) == -1<<31 && int32(b) == -1 {
				return 0
			}
			return uint32(int32(a) % int32(b))
		}
		if m := DivS(ma, mb, va, vb); (sdiv(va, vb)^sdiv(va2, vb2))&^uint32(m) != 0 {
			ok = false
		}
		if m := ModS(ma, mb, va, vb); (smod(va, vb)^smod(va2, vb2))&^uint32(m) != 0 {
			ok = false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// Binop and Unop dispatch every opcode to its primitive; an opcode with
// no rule of its own is fully secret when either operand is.
func TestOpDispatch(t *testing.T) {
	cmp := func(ma, mb Mask, _, _ uint32) Mask { return Cmp(ma, mb) }
	binops := map[vm.Op]func(ma, mb Mask, va, vb uint32) Mask{
		vm.OpAdd: Add, vm.OpSub: Sub, vm.OpMul: Mul,
		vm.OpDivU: DivU, vm.OpDivS: DivS, vm.OpModU: ModU, vm.OpModS: ModS,
		vm.OpAnd: And, vm.OpOr: Or,
		vm.OpXor: func(ma, mb Mask, _, _ uint32) Mask { return Xor(ma, mb) },
		vm.OpShl: Shl, vm.OpShrU: Shr, vm.OpShrS: Sar,
		vm.OpCmpEQ: cmp, vm.OpCmpNE: cmp, vm.OpCmpLTS: cmp,
		vm.OpCmpLES: cmp, vm.OpCmpLTU: cmp, vm.OpCmpLEU: cmp,
	}
	unops := map[vm.Op]func(m Mask, v uint32) Mask{
		vm.OpNot: func(m Mask, _ uint32) Mask { return Not(m) },
		vm.OpNeg: func(m Mask, v uint32) Mask { return Sub(0, m, 0, v) },
	}
	masks := []Mask{0, 1, 0xFF, 0x80000000, 0x00F0F000, All}
	r := rand.New(rand.NewPCG(1, 2))
	for op := vm.OpNop; op <= vm.OpHalt; op++ {
		for _, ma := range masks {
			for _, mb := range masks {
				va, vb := r.Uint32(), r.Uint32()%40
				want := Mask(0)
				if ma|mb != 0 {
					want = All
				}
				if f, ok := binops[op]; ok {
					want = f(ma, mb, va, vb)
				}
				if got := Binop(op, ma, mb, va, vb); got != want {
					t.Errorf("Binop(%v, %#x, %#x, %#x, %#x) = %#x, want %#x", op, ma, mb, va, vb, got, want)
				}
			}
			if f, ok := unops[op]; ok {
				v := r.Uint32()
				if got, want := Unop(op, ma, v), f(ma, v); got != want {
					t.Errorf("Unop(%v, %#x, %#x) = %#x, want %#x", op, ma, v, got, want)
				}
			}
		}
	}
}
