// Package costpairtest exercises the costpair analyzer: a Cost field that
// sits next to a cmdstream.Program may only be written with that
// program's Cost() fold. Assigning anything else, writing a sub-field,
// Cost.Add, or taking its address is a positive; the fold itself, in an
// assignment or a keyed literal, and Cost fields of structs without a
// program are negatives.
package costpairtest

import (
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/workload"
)

type result struct {
	Requests int
	Cost     workload.Cost
	Program  cmdstream.Program
}

// ledger has a Cost but no program: nothing to derive it from.
type ledger struct {
	Cost workload.Cost
}

func badAssign(res *result, c workload.Cost) {
	res.Cost = c // want `res.Cost is written from outside its program's fold`
}

func badOtherProgram(res, other *result) {
	res.Cost = other.Program.Cost() // want `res.Cost is written from outside its program's fold`
}

func badAdd(res *result, sec float64) {
	res.Cost.Add(workload.Cost{Seconds: sec}) // want `res.Cost is written from outside its program's fold`
}

func badSubField(res *result, sec float64) {
	res.Cost.Seconds += sec // want `res.Cost is written from outside its program's fold`
}

func badAddress(res *result) *workload.Cost {
	return &res.Cost // want `res.Cost is written from outside its program's fold`
}

func badLiteral(p cmdstream.Program, c workload.Cost) result {
	return result{Program: p, Cost: c} // want `Cost in a literal carrying a cmdstream.Program`
}

func good(res *result) {
	res.Requests = res.Program.Requests()
	res.Cost = res.Program.Cost()
}

func goodLiteral(p cmdstream.Program) result {
	return result{Program: p, Cost: p.Cost()}
}

func goodRead(res *result) float64 {
	return res.Cost.Seconds + res.Cost.Scale(2).Joules
}

func goodNoProgram(l *ledger, sec float64) {
	l.Cost.Add(workload.Cost{Seconds: sec})
	l.Cost = workload.Cost{}
}
