package gram

import (
	"fmt"
	"strings"

	"tcqr/internal/dense"
	"tcqr/internal/faultinject"
	"tcqr/internal/hazard"
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
}

// NewLadder builds the escalation ladder starting at first: the standard
// rungs (CholQR2, MGS, Householder) that are strictly more robust than
// first are appended after it. A Householder start has no rungs above it.
func NewLadder(first Panel, report *hazard.Report) *Ladder {
	l := &Ladder{Rungs: []Panel{first}, Report: report}
	switch first.(type) {
	case CholQRPanel, *CholQRPanel:
		l.Rungs = append(l.Rungs, CholQR2Panel{}, MGSPanel{}, &HouseholderPanel{})
	case CholQR2Panel, *CholQR2Panel:
		l.Rungs = append(l.Rungs, MGSPanel{}, &HouseholderPanel{})
	case *HouseholderPanel:
		// Terminal algorithm; nothing more robust to escalate to.
	default: // CAQR, MGS and any external panel
		l.Rungs = append(l.Rungs, MGSPanel{}, &HouseholderPanel{})
	}
	return l
}

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
		if err == nil {
			return q, r, nil
		}
		action := "fail"
		if i+1 < len(l.Rungs) {
			action = "escalate to " + l.Rungs[i+1].Name()
		}
		l.Report.Record(hazard.Event{
			Kind:   hazard.KindBreakdown,
			Stage:  "panel",
			Detail: fmt.Sprintf("%s on %dx%d panel: %v", p.Name(), a.Rows, a.Cols, err),
			Action: action,
		})
	}
	return nil, nil, fmt.Errorf("gram: every ladder rung failed, last (%s): %w", l.Rungs[len(l.Rungs)-1].Name(), err)
}
