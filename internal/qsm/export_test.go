package qsm

import (
	"repro/internal/costmodel"
	"repro/internal/cq"
	"repro/internal/mqo"
)

// SetPlanCheck installs fn as the per-group plan hook for the duration of a
// test and returns the function that removes it.
func SetPlanCheck(fn func(qs []*cq.CQ, cm *costmodel.Model, cfg mqo.Config, res *mqo.Result)) (restore func()) {
	checkPlan = fn
	return func() { checkPlan = nil }
}
