package modelcount

import (
	"math"
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/lang"
)

func TestEnumerateIdentity(t *testing.T) {
	// putc(secret) has 256 behaviors over a 1-byte domain: exactly 8 bits.
	prog, err := lang.Compile("id.mc", `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(buf[0]);
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	c := Enumerate(prog, Options{SecretLen: 1})
	if !c.Exhaustive || c.Enumerated != 256 {
		t.Fatalf("enumeration incomplete: %+v", c)
	}
	if c.Behaviors != 256 || math.Abs(c.LowerBits-8) > 1e-9 {
		t.Fatalf("identity channel: %+v, want 256 behaviors / 8 bits", c)
	}
}

func TestEnumerateConstant(t *testing.T) {
	// A constant program leaks nothing: one behavior, 0 bits.
	prog, err := lang.Compile("const.mc", `
int main() {
    char buf[1];
    read_secret(buf, 1);
    putc(65);
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	c := Enumerate(prog, Options{SecretLen: 1})
	if c.Behaviors != 1 || c.LowerBits != 0 {
		t.Fatalf("constant program: %+v, want 1 behavior / 0 bits", c)
	}
}

func TestEnumerateOneBit(t *testing.T) {
	// A threshold comparison leaks exactly one bit.
	prog, err := lang.Compile("bit.mc", `
int main() {
    char buf[1];
    read_secret(buf, 1);
    if ((int)buf[0] < 128) { putc(48); } else { putc(49); }
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	c := Enumerate(prog, Options{SecretLen: 1})
	if c.Behaviors != 2 || math.Abs(c.LowerBits-1) > 1e-9 {
		t.Fatalf("threshold program: %+v, want 2 behaviors / 1 bit", c)
	}
}

func TestEnumerateBudgeted(t *testing.T) {
	// A truncated enumeration is not exhaustive and still counts behaviors
	// among what it ran.
	prog, err := lang.Compile("trunc.mc", `
int main() {
    char buf[2];
    read_secret(buf, 2);
    putc(buf[1]);
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	c := Enumerate(prog, Options{SecretLen: 2, MaxSecrets: 100})
	if c.Exhaustive {
		t.Fatalf("100 of 65536 secrets reported exhaustive: %+v", c)
	}
	if c.Enumerated != 100 || c.Behaviors != 100 {
		t.Fatalf("truncated identity on the fast-varying byte: %+v, want 100/100", c)
	}
}

// Enumerate reuses one machine across secrets, so each run must start from
// the initial data image: this guest prints a string literal's byte that
// the previous run overwrote with its secret. Restored, every run prints
// 'A' and there is one behavior; carried over, there would be 256.
func TestEnumerateRestoresDataImage(t *testing.T) {
	prog, err := lang.Compile("carry.mc", `
int main() {
    char *s;
    char buf[1];
    s = "A";
    read_secret(buf, 1);
    putc(s[0]);
    s[0] = buf[0];
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	c := Enumerate(prog, Options{SecretLen: 1})
	if c.Enumerated != 256 || c.Behaviors != 1 {
		t.Fatalf("carry-over program: %+v, want 256 enumerated / 1 behavior", c)
	}
}

// The enumerator terminates on every guest with a small budget — it is
// the tool the corpus tightness tests lean on.
func TestEnumerateGuestsTerminate(t *testing.T) {
	if testing.Short() {
		t.Skip("guest enumeration sweep skipped in -short mode")
	}
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			t.Fatalf("no sample inputs for %q", name)
		}
		c := Enumerate(guest.Program(name), Options{
			SecretLen:  len(secret),
			Public:     public,
			MaxSecrets: 64,
		})
		if c.Enumerated == 0 || c.Behaviors == 0 {
			t.Errorf("%s: empty enumeration: %+v", name, c)
		}
		if c.LowerBits > 8*float64(len(secret)) {
			t.Errorf("%s: lower bound %v exceeds the secret width", name, c.LowerBits)
		}
	}
}
