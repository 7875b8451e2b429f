package tcsim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestKindTable checks every row of the engine table against itself: the
// name parses back, the engine New builds is recognised as that kind, the
// label stays in the metrics vocabulary, and Recovery only ever escalates.
func TestKindTable(t *testing.T) {
	labels := map[string]bool{"tc": true, "tc-ec": true, "bf16": true, "fp32": true}
	for _, k := range Kinds() {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		if got, ok := KindNamed(k.New().Name()); !ok || got != k {
			t.Errorf("KindNamed(%v.New().Name()) = %v, %v", k, got, ok)
		}
		if !labels[k.Label()] {
			t.Errorf("%v: label %q outside the metrics vocabulary", k, k.Label())
		}
		delete(labels, k.Label())
		for _, next := range k.Recovery(false) {
			if next <= k {
				t.Errorf("%v recovers on %v, which is not later in the escalation order", k, next)
			}
		}
	}
	if k, err := ParseKind(""); err != nil || k != KindTC {
		t.Errorf(`ParseKind("") = %v, %v; want the default %v`, k, err, KindTC)
	}
	if _, err := ParseKind("fp8"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(Kinds())) {
		t.Errorf("unknown name: error %v should list %s", err, fmt.Sprint(Kinds()))
	}
	if _, ok := KindNamed("FP8-GEMM"); ok {
		t.Error("an engine name outside the table has no kind")
	}
	var viaJSON struct{ K Kind }
	if err := json.Unmarshal([]byte(`{"K":"fp8"}`), &viaJSON); err == nil {
		t.Error("an unknown engine name decoded from JSON")
	}
}

// TestKindRecovery pins the escalation order the engine ladder derives from.
func TestKindRecovery(t *testing.T) {
	for _, c := range []struct {
		k        Kind
		overflow bool
		want     string
	}{
		{KindTC, false, "[tc-ec bf16 fp32]"},
		{KindTC, true, "[bf16 fp32]"},
		{KindTCEC, false, "[bf16 fp32]"},
		{KindTCEC, true, "[bf16 fp32]"},
		{KindBF16, false, "[fp32]"},
		{KindFP32, false, "[]"},
	} {
		if got := fmt.Sprint(c.k.Recovery(c.overflow)); got != c.want {
			t.Errorf("%v.Recovery(%v) = %s, want %s", c.k, c.overflow, got, c.want)
		}
	}
}
