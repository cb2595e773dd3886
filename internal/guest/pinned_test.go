package guest

import (
	"testing"

	"flowcheck/internal/cachekey"
)

// pinnedPrograms holds cachekey.Program of every guest as compiled before
// the front end moved to a byte-indexed operator table and precedence
// climbing. The key covers bytecode, data image, site table and function
// table, and it keys the result cache and routes fleet requests, so a
// front-end change that alters any of them shows here.
var pinnedPrograms = map[string]string{
	"battleship":  "23419c0c582a4f7fcd73c18b7da47cd9ce724ba547a567bf7c4d0b0e09718d15",
	"calendar":    "5fa1da799fed3aecac30b46edf87cb05e20357878d24d1cc234cdf802574d81c",
	"compress":    "21295b783eaacb5353d4367cf4e72a1e9ad9a48086b71fcd651095435703fdee",
	"count_punct": "3308c4b3dcb274cf7d96f5b32f2cdd1aaa89adf3045336b2a8e51b9ccb4b215e",
	"divzero":     "c4bb41b336505e590a6df6a7096efd104712dd0153df0c147eb801b7a5f0852c",
	"guessnum":    "03b7ce89b5aa2ac0476e2b499cebb366352dcfa45c4c659cf4d79e1c122d840b",
	"imagefilter": "640e6c2517122bcc5e34d00c8716f392e8bae92521d4dc39fef253408ad2e8e4",
	"interp":      "3747e40135fb25b6dae98bbe3b61f3cf0f70bdf0d4075612d91f9740945c8ca8",
	"sshauth":     "afb97239fc2b79983927dda61dda1003b3cefb920bde7a50b3d97dec9d51a36e",
	"unary":       "5712244a823e2b7e7bf241b92b41cfdbe2bd9aca1c2ed937f52de77696a557fd",
	"xserver":     "5aa78e5862c9249f03ce8f974566ff4aebf1490dc7649a1cde96bd689e10f634",
}

func TestGuestProgramsPinned(t *testing.T) {
	names := Names()
	if len(names) != len(pinnedPrograms) {
		t.Fatalf("%d guests, %d pinned keys: pin the new guest's key", len(names), len(pinnedPrograms))
	}
	for _, n := range names {
		want, ok := pinnedPrograms[n]
		if !ok {
			t.Errorf("%s: no pinned key", n)
			continue
		}
		if got := cachekey.Program(Program(n)).String(); got != want {
			t.Errorf("%s: program key %s, pinned %s", n, got, want)
		}
	}
}
