package tcsim

import "fmt"

// Kind selects one of the simulated engines. It is the single engine
// vocabulary of the repository: the wire/flag names, the metrics labels,
// the Engine.Name() strings, construction, the unit roundoffs and the
// recovery order all live in the table below, and every layer above — the
// public Config, the serving wire format, cache keys, spill files, metrics,
// the engine recovery ladder — reads it instead of keeping its own copy.
//
// The declaration order is the escalation order of the recovery ladder:
// the fp16 TensorCore, then its error-corrected variant (fp32-grade accuracy,
// still the fp16 exponent range), then bfloat16 (coarser, but the float32
// exponent range), then plain fp32. The zero value is the paper's engine.
type Kind uint8

const (
	KindTC   Kind = iota // fp16 TensorCore (TensorCore)
	KindTCEC             // error-corrected fp16 TensorCore (TCEC)
	KindBF16             // bfloat16 engine (BFloat16)
	KindFP32             // plain float32 GEMM, no neural engine (FP32)
)

var kinds = [...]struct {
	name  string // wire and flag name
	label string // metrics label value
	gemm  string // Engine.Name() of the engines New builds
	rung  string // how recovery actions call it
	// roundoff is the unit roundoff of one GEMM's products relative to the
	// exact product of its float32 operands.
	roundoff float64
	// fp16Range marks engines whose operands saturate past 65504.
	fp16Range bool
	new       func() Counted
}{
	KindTC: {"fp16", "tc", "TC-GEMM", "fp16 tensorcore", 0x1p-11, true,
		func() Counted { return &TensorCore{TrackSpecials: true} }},
	KindTCEC: {"tc-ec", "tc-ec", "TCEC-GEMM", "error-corrected tensorcore", 0x1p-22, true,
		func() Counted { return &TCEC{TrackSpecials: true} }},
	KindBF16: {"bf16", "bf16", "BF16-GEMM", "bfloat16", 0x1p-8, false,
		func() Counted { return &BFloat16{TrackSpecials: true} }},
	KindFP32: {"fp32", "fp32", "SGEMM", "fp32", 0x1p-24, false,
		func() Counted { return &FP32{} }},
}

// Kinds lists every engine kind in escalation order; printed with %v it is
// the valid-name list of flag help and parse errors.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind resolves a wire/flag engine name; "" is the default, KindTC.
func ParseKind(name string) (Kind, error) {
	if name == "" {
		return KindTC, nil
	}
	for i, k := range kinds {
		if k.name == name {
			return Kind(i), nil
		}
	}
	return KindTC, fmt.Errorf("unknown engine %q (want one of %v)", name, Kinds())
}

// KindNamed reports the kind whose engines return gemmName from Name(), so
// wrappers that forward Name() keep their kind.
func KindNamed(gemmName string) (Kind, bool) {
	for i, k := range kinds {
		if k.gemm == gemmName {
			return Kind(i), true
		}
	}
	return 0, false
}

// String returns the wire/flag name.
func (k Kind) String() string { return kinds[k].name }

// MarshalText and UnmarshalText store a Kind by that name (spill files).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseKind(string(b))
	return err
}

// Label returns the value of the engine= metrics label.
func (k Kind) Label() string { return kinds[k].label }

// RungName is the phrase recovery actions use ("retry with <RungName> engine").
func (k Kind) RungName() string { return kinds[k].rung }

// UnitRoundoff returns the relative error bound of one product.
func (k Kind) UnitRoundoff() float64 { return kinds[k].roundoff }

// Neural reports whether k rounds its operands to a 16-bit format; false
// only for the plain fp32 baseline.
func (k Kind) Neural() bool { return k != KindFP32 }

// Counted is an Engine that reports its work counters.
type Counted interface {
	Engine
	Stats() Stats
}

// New builds a fresh engine of this kind that counts its overflows and
// underflows (TrackSpecials); the count rides in the rounding pass and
// changes no rounded value.
func (k Kind) New() Counted { return kinds[k].new() }

// Recovery lists the engines to retry on, in order, after a failure on k:
// every later kind, except that after an fp16 overflow the kinds sharing
// the fp16 exponent range are skipped — they would overflow again.
func (k Kind) Recovery(overflow bool) []Kind {
	var out []Kind
	for next := int(k) + 1; next < len(kinds); next++ {
		if overflow && kinds[next].fp16Range {
			continue
		}
		out = append(out, Kind(next))
	}
	return out
}
