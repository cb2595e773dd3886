package experiments

import (
	"fmt"
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
	"flowcheck/internal/modelcount"
	"flowcheck/internal/vm"
)

// LadderRow is one guest's precision-ladder tightness measurement: the
// bound each rung answers on the guest's sample inputs, a bounded
// behavior-enumeration lower bound, and what each rung costs. The sound
// orderings measured ≤ static ≤ trivial and lower ≤ static are asserted
// by experiments_test.go over every row. Lower vs measured can cross:
// MeasuredBits covers one execution while LowerBits counts behaviors
// across the enumerated domain (the §3.2 single-run caveat — unary's
// exhaustive 8-bit lower bound exceeds its 6-bit single-run flow).
type LadderRow struct {
	Guest        string
	SecretBytes  int
	LowerBits    float64 // modelcount behavior enumeration (bounded)
	Exhaustive   bool    // the enumeration covered the whole secret domain
	MeasuredBits int64   // full solve (max flow)
	StaticBits   int64   // static rung
	TrivialBits  int64   // trivial rung: 8·len(secret)
	TrivialTime  time.Duration
	StaticTime   time.Duration
	FullTime     time.Duration
}

// ladderGapSrc is the synthetic gap demonstration: the guest reads only 4
// bytes of however large a secret it is offered, so over a 64-byte secret
// the three rungs separate cleanly — trivial 512, static 32, measured 8.
const ladderGapSrc = `
int main() {
    char buf[4];
    read_secret(buf, 4);
    putc(buf[0] ^ buf[1] ^ buf[2] ^ buf[3]);
    return 0;
}
`

// LadderGapSecretBytes is the gap row's secret size.
const LadderGapSecretBytes = 64

// ladderMaxEnumerated caps the behavior enumeration per guest; 256
// secrets cover a 1-byte domain exhaustively and sample larger ones.
const ladderMaxEnumerated = 256

// Ladder measures every guest at each rung of the precision ladder, plus
// the synthetic gap row (guest name "gap-demo").
func Ladder() []LadderRow {
	var rows []LadderRow
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			continue
		}
		rows = append(rows, ladderRow(name, guest.Program(name),
			engine.Inputs{Secret: secret, Public: public}))
	}
	prog, err := engine.CompileCached("ladder_gap.mc", ladderGapSrc)
	if err != nil {
		panic(fmt.Sprintf("ladder gap demo: %v", err))
	}
	res := ladderRow("gap-demo", prog,
		engine.Inputs{Secret: make([]byte, LadderGapSecretBytes)})
	rows = append(rows, res)
	return rows
}

func ladderRow(name string, prog *vm.Program, in engine.Inputs) LadderRow {
	analyze := func(p engine.Precision) (*engine.Result, time.Duration) {
		start := time.Now()
		res, err := engine.Analyze(prog, in, engine.Config{Precision: p})
		if err != nil {
			panic(fmt.Sprintf("ladder %s (%v): %v", name, p, err))
		}
		return res, time.Since(start)
	}
	trivial, trivialTime := analyze(engine.PrecisionTrivial)
	static, staticTime := analyze(engine.PrecisionStatic)
	full, fullTime := analyze(engine.PrecisionFull)

	mc := modelcount.Enumerate(prog, modelcount.Options{
		SecretLen:  len(in.Secret),
		Public:     in.Public,
		MaxSecrets: ladderMaxEnumerated,
	})
	return LadderRow{
		Guest:        name,
		SecretBytes:  len(in.Secret),
		LowerBits:    mc.LowerBits,
		Exhaustive:   mc.Exhaustive,
		MeasuredBits: full.Bits,
		StaticBits:   static.Bits,
		TrivialBits:  trivial.Bits,
		TrivialTime:  trivialTime,
		StaticTime:   staticTime,
		FullTime:     fullTime,
	}
}

// LadderTotals summarizes the tightness sweep for the perf trajectory:
// the gap row's three bounds and the worst full-solve latency ratio a
// static-rung answer avoids.
func LadderTotals(rows []LadderRow) (trivialBits, staticBits, measuredBits int64, fullUS, staticUS float64) {
	for _, r := range rows {
		fullUS += float64(r.FullTime.Microseconds())
		staticUS += float64(r.StaticTime.Microseconds())
		if r.Guest == "gap-demo" {
			trivialBits, staticBits, measuredBits = r.TrivialBits, r.StaticBits, r.MeasuredBits
		}
	}
	return trivialBits, staticBits, measuredBits, fullUS, staticUS
}
