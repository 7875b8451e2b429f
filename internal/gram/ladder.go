package gram

import (
	"fmt"
	"strings"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/faultinject"
	"tcqr/internal/hazard"
	"tcqr/internal/tcsim"
)

// Ladder is a Panel that tries a chain of factorizers in order, escalating
// to the next rung when one breaks down. It implements the panel half of
// the fallback ladder: CholQR → CholQR2 → MGS → Householder, with CAQR
// slotting in ahead of MGS when it is the selected algorithm. Every
// breakdown and escalation is recorded in Report, so the caller can see
// which path actually produced the factorization.
type Ladder struct {
	// Rungs are tried first to last. The last rung's error, if any, is
	// returned.
	Rungs []Panel
	// Report receives one event per breakdown (nil disables recording).
	Report *hazard.Report
	// Tol, when positive, is the backward-error quality gate applied to
	// engine-bearing rungs: a panel whose ‖A − QR‖_F/‖A‖_F exceeds Tol is
	// treated as a precision-loss hazard and escalated, exactly like a
	// breakdown. This is what makes "equal backward error" a property the
	// ladder enforces rather than hopes for: a plain-fp16 panel sits at its
	// ~2⁻¹¹ error floor and always trips an fp32-grade gate, the
	// error-corrected rung clears it by ~two orders of magnitude.
	// Engine-less (fp32) rungs are never gated — they are the floor the
	// gate is calibrated against. Zero disables the gate (the historical
	// behaviour, and the ablation paths' requirement).
	Tol float64
}

// DefaultPanelTol is the quality gate NewLadder installs when the ladder
// carries an error-corrected rung. Calibration (see the tc-ec battery):
// plain-TC CAQR panels measure ~3–5·10⁻⁴ backward error at every paper
// shape, tc-ec and fp32 panels ~1.5·10⁻⁷ — this gate sits ≥30× from both
// populations.
const DefaultPanelTol = 1e-5

// NewLadder builds the escalation ladder starting at first: the standard
// rungs (CholQR2, MGS, Householder) that are strictly more robust than
// first are appended after it. A Householder start has no rungs above it.
//
// When first runs its GEMMs on a neural engine, the same panel is inserted
// directly after it on every on-device engine of the recovery order
// (tcsim.Kind.Recovery) with a smaller unit roundoff — today exactly one
// rung, the plain fp16 TensorCore's error-corrected twin (tc-ec,
// Ootomo–Yokota): a precision-driven breakdown — κ(A)²·2⁻¹¹ ≳ 1 collapsing
// the Gram matrix, a dependent column the fp16 rounding manufactured — then
// recovers at fp32-grade accuracy while staying on the tensor-core
// simulant, instead of paying the full fp32 panel fallback. Plain fp32 is
// not an engine rung: the algorithm rungs below are the fp32 panels.
func NewLadder(first Panel, report *hazard.Report) *Ladder {
	l := &Ladder{Rungs: []Panel{first}, Report: report}
	if ep, ok := first.(enginePanel); ok && ep.gemmEngine() != nil {
		if cur, ok := tcsim.KindNamed(ep.gemmEngine().Name()); ok {
			for _, k := range cur.Recovery(false) {
				if k.Neural() && k.UnitRoundoff() < cur.UnitRoundoff() {
					l.Rungs = append(l.Rungs, ep.withEngine(k.New(true)))
					l.Tol = DefaultPanelTol
				}
			}
		}
	}
	switch first.(type) {
	case CholQRPanel, *CholQRPanel:
		l.Rungs = append(l.Rungs, CholQR2Panel{}, MGSPanel{}, &HouseholderPanel{})
	case CholQR2Panel, *CholQR2Panel:
		l.Rungs = append(l.Rungs, MGSPanel{}, &HouseholderPanel{})
	case *HouseholderPanel:
		// Terminal algorithm; nothing more robust to escalate to.
	default: // CAQR, MGS, CGS and any external panel
		l.Rungs = append(l.Rungs, MGSPanel{}, &HouseholderPanel{})
	}
	return l
}

// enginePanel is a Panel that carries an engine: all the ladder needs to
// know to re-run the same algorithm on another engine and to tell the
// engine-bearing rungs (which the quality gate judges) from the pure-fp32
// ones (gemmEngine() == nil, the floor the gate is calibrated against).
type enginePanel interface {
	Panel
	gemmEngine() tcsim.Engine
	withEngine(tcsim.Engine) Panel
}

func (p *CAQRPanel) gemmEngine() tcsim.Engine { return p.Engine }
func (p *CAQRPanel) withEngine(e tcsim.Engine) Panel {
	return &CAQRPanel{Engine: e, RowBlock: p.RowBlock}
}

func (p CholQRPanel) gemmEngine() tcsim.Engine        { return p.Engine }
func (p CholQRPanel) withEngine(e tcsim.Engine) Panel { return CholQRPanel{Engine: e} }

// Name implements Panel.
func (l *Ladder) Name() string {
	names := make([]string, len(l.Rungs))
	for i, p := range l.Rungs {
		names[i] = p.Name()
	}
	return "ladder(" + strings.Join(names, "->") + ")"
}

// SiteLadderRung is the failpoint each rung evaluates after factoring
// cleanly (internal/faultinject): an injected error reads as a breakdown.
const SiteLadderRung = "gram.ladder.rung"

// Factor implements Panel: the first rung that factors a cleanly wins.
func (l *Ladder) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	if len(l.Rungs) == 0 {
		return nil, nil, fmt.Errorf("gram: empty ladder: %w", hazard.ErrBreakdown)
	}
	for i, p := range l.Rungs {
		q, r, err = p.Factor(a)
		// Failpoint: an injected error forces this rung to report breakdown
		// even when it factored cleanly, driving the escalation path on
		// matrices that would not trip it naturally.
		if err == nil {
			if ferr := faultinject.Fire(SiteLadderRung); ferr != nil {
				err = fmt.Errorf("gram: injected rung failure: %v: %w", ferr, hazard.ErrBreakdown)
			}
		}
		kind := hazard.KindBreakdown
		// Quality gate: an engine-bearing rung must also deliver the
		// backward error the gate demands; half-precision arithmetic at its
		// error floor escalates as a precision-loss hazard.
		if ep, ok := p.(enginePanel); ok && ep.gemmEngine() != nil && err == nil && l.Tol > 0 {
			if be := accuracy.BackwardError(a, q, r); be > l.Tol {
				kind = hazard.KindPrecisionLoss
				err = fmt.Errorf("gram: %s backward error %.2e exceeds the %.0e quality gate: %w",
					p.Name(), be, l.Tol, hazard.ErrPrecisionLoss)
			}
		}
		if err == nil {
			return q, r, nil
		}
		action := "fail"
		if i+1 < len(l.Rungs) {
			action = "escalate to " + l.Rungs[i+1].Name()
		}
		l.Report.Record(hazard.Event{
			Kind:   kind,
			Stage:  "panel",
			Detail: fmt.Sprintf("%s on %dx%d panel: %v", p.Name(), a.Rows, a.Cols, err),
			Action: action,
		})
	}
	return nil, nil, fmt.Errorf("gram: every ladder rung failed, last (%s): %w", l.Rungs[len(l.Rungs)-1].Name(), err)
}
