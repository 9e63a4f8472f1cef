// Adapters registering the pre-framework controllers — DCQCN (core.RP),
// the fixed-rate PFC-only baseline, QCN and TIMELY — under the cc
// interface. Each adapter is a thin listener shell over the unchanged
// state machine; Unwrap exposes the inner controller to
// inspection surfaces.

package cc

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/qcn"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/timely"
)

// --- DCQCN ---

// dcqcnController adapts core.RP. The rate listener maps onto the RP's
// own OnRateChange hook, so the wiring is identical to the pre-framework
// NIC fast path — a requirement for golden-digest stability.
type dcqcnController struct{ *core.RP }

func (c dcqcnController) SetRateListener(fn func(simtime.Rate)) { c.RP.OnRateChange = fn }

func (c dcqcnController) Unwrap() rocev2.RateController { return c.RP }

func dcqcnDefaults(lineRate simtime.Rate) Params {
	p := core.DefaultParams()
	p.LineRate = lineRate
	return &p
}

func newDCQCN(p Params, clock core.Clock) Controller {
	return dcqcnController{core.NewRP(*p.(*core.Params), clock)}
}

// --- Fixed rate (PFC-only baseline) ---

// FixedParams configures the trivial always-at-rate controller.
type FixedParams struct {
	// Rate is the constant send rate.
	Rate simtime.Rate `json:"Rate"`
}

// Validate reports the first configuration error, or nil.
func (p *FixedParams) Validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("cc: fixed rate must be positive, got %v", p.Rate)
	}
	return nil
}

type fixedController struct{ rocev2.FixedRate }

func (c fixedController) SetRateListener(func(simtime.Rate)) {}

func (c fixedController) Unwrap() rocev2.RateController { return c.FixedRate }

// --- QCN (802.1Qau baseline) ---

// QCNParams configures the QCN baseline: the reaction point reuses
// DCQCN's recovery machinery (RP), the congestion point is the sampler
// attached to every switch (CP), Gd converts quantized feedback into cut
// fractions.
type QCNParams struct {
	RP core.Params  `json:"RP"`
	CP qcn.CPConfig `json:"CP"`
	// Gd is the feedback gain; the standard picks Gd·Fb_max = 1/2.
	Gd float64 `json:"Gd"`
}

// Validate reports the first configuration error, or nil.
func (p *QCNParams) Validate() error {
	if err := p.RP.Validate(); err != nil {
		return err
	}
	switch {
	case p.CP.QEq <= 0:
		return fmt.Errorf("cc: qcn QEq must be positive, got %d", p.CP.QEq)
	case p.CP.W < 0:
		return fmt.Errorf("cc: qcn W must be non-negative, got %g", p.CP.W)
	case p.CP.SampleEvery <= 0:
		return fmt.Errorf("cc: qcn SampleEvery must be positive, got %d", p.CP.SampleEvery)
	case p.CP.MaxFb <= 0:
		return fmt.Errorf("cc: qcn MaxFb must be positive, got %g", p.CP.MaxFb)
	case p.Gd <= 0 || p.Gd*p.CP.MaxFb > 1:
		return fmt.Errorf("cc: qcn need 0 < Gd·MaxFb <= 1, got %g·%g", p.Gd, p.CP.MaxFb)
	}
	return nil
}

type qcnController struct{ *qcn.RP }

func (c qcnController) SetRateListener(fn func(simtime.Rate)) { c.RP.RP.OnRateChange = fn }

func (c qcnController) Unwrap() rocev2.RateController { return c.RP }

func qcnDefaults(lineRate simtime.Rate) Params {
	return &QCNParams{
		RP: qcn.LineRateParams(lineRate),
		CP: qcn.DefaultCPConfig(),
		Gd: 0.5 / 63,
	}
}

func newQCN(p Params, clock core.Clock) Controller {
	qp := p.(*QCNParams)
	rp := qcn.NewRP(qp.RP, clock)
	rp.Gd = qp.Gd
	return qcnController{rp}
}

func qcnSampler(p Params, ctx FabricContext) SamplerFunc {
	cp := qcn.NewCP(p.(*QCNParams).CP, ctx.LocalHosts, ctx.Rand)
	return cp.Sample
}

// --- TIMELY ---

// timelyController adapts timely.Controller, which already implements
// the RTT reactor and the rate listener; only Unwrap is added here.
type timelyController struct{ *timely.Controller }

func (c timelyController) Unwrap() rocev2.RateController { return c.Controller }

func timelyDefaults(lineRate simtime.Rate) Params {
	p := timely.DefaultParams()
	p.LineRate = lineRate
	return &p
}

func newTimely(p Params, clock core.Clock) Controller {
	return timelyController{timely.NewWithClock(*p.(*timely.Params), clock)}
}

var (
	_ Controller = dcqcnController{}
	_ Controller = fixedController{}
	_ Controller = qcnController{}
	_ Controller = timelyController{}
	_ QCNReactor = qcnController{}
	_ RTTReactor = timelyController{}
)
