// Package shape computes a Table II-style program feature vector from
// the partial-SSA IR and the completed auxiliary (Andersen) result —
// before memory-SSA or SVFG construction, so it costs none of the
// staged pipeline and every run that completes the auxiliary phase
// reports it (Report.Shape), degraded runs included. The features
// mirror the program-shape columns the paper's evaluation keys on (IR
// size, indirect density, address-taken objects) plus the ratios the
// CFG-free backend's usefulness hinges on (store/load balance,
// singleton coverage).
//
// The profile is a pure function of (program, auxiliary result): both
// are deterministic, so re-solving the same source must reproduce the
// profile bit-for-bit — an oracle invariant (internal/oracle).
package shape

import (
	"vsfs/internal/andersen"
	"vsfs/internal/ir"
)

// Profile is the feature vector. Ratios are 0 when their denominator
// is 0. Reports and run-ledger records carry it, and their readers
// rely on its fields: keep them append-only.
type Profile struct {
	// IR size.
	Instrs    int `json:"instrs"`
	Functions int `json:"functions"`

	// Memory-access mix.
	Loads  int `json:"loads"`
	Stores int `json:"stores"`
	// StoreLoadRatio is Stores/Loads: store-heavy programs version
	// (and meld) more, load-heavy ones stress consumed-set lookups.
	StoreLoadRatio float64 `json:"storeLoadRatio"`

	// Object population.
	AddressTaken int `json:"addressTaken"`
	Singletons   int `json:"singletons"`
	// SingletonRatio is Singletons/AddressTaken: the fraction of
	// objects eligible for strong updates, which bounds how much
	// flow-sensitivity can pay off at all.
	SingletonRatio float64 `json:"singletonRatio"`

	// Call structure.
	Calls         int `json:"calls"`
	IndirectCalls int `json:"indirectCalls"`

	// Auxiliary points-to density.
	// AvgPtsSize averages |pts_aux(p)| over pointers with a non-empty
	// set; MaxPtsSize is the largest single set.
	AvgPtsSize float64 `json:"avgPtsSize"`
	MaxPtsSize int     `json:"maxPtsSize"`

	// IndirectDensity estimates indirect value-flow edges per
	// instruction before the SVFG exists: each memory access fans out
	// to every object its base pointer may reach, so
	// Σ_access |pts_aux(base)| / Instrs approximates Table II's
	// indirect-edge density.
	IndirectDensity float64 `json:"indirectDensity"`
}

// Of computes the profile. aux must come from prog. Iteration is in
// label/ID order throughout, so the result is deterministic.
func Of(prog *ir.Program, aux *andersen.Result) Profile {
	var p Profile
	for _, f := range prog.Funcs {
		p.Functions++
		f.ForEachInstr(func(in *ir.Instr) {
			p.Instrs++
			switch in.Op {
			case ir.Load:
				p.Loads++
				p.IndirectDensity += float64(aux.PointsTo(in.Uses[0]).Len())
			case ir.Store:
				p.Stores++
				p.IndirectDensity += float64(aux.PointsTo(in.Uses[0]).Len())
			case ir.Call:
				p.Calls++
				if in.Callee == nil {
					p.IndirectCalls++
				}
			}
		})
	}
	singles := aux.Singletons()
	var ptsSum, ptsPtrs int
	for id := ir.ID(1); int(id) < prog.NumValues(); id++ {
		if prog.IsObject(id) {
			p.AddressTaken++
			if singles.Has(uint32(prog.ObjNum(id))) {
				p.Singletons++
			}
			continue
		}
		if !prog.IsPointer(id) {
			continue
		}
		if n := aux.PointsTo(id).Len(); n > 0 {
			ptsSum += n
			ptsPtrs++
			if n > p.MaxPtsSize {
				p.MaxPtsSize = n
			}
		}
	}
	if p.Loads > 0 {
		p.StoreLoadRatio = float64(p.Stores) / float64(p.Loads)
	}
	if p.AddressTaken > 0 {
		p.SingletonRatio = float64(p.Singletons) / float64(p.AddressTaken)
	}
	if ptsPtrs > 0 {
		p.AvgPtsSize = float64(ptsSum) / float64(ptsPtrs)
	}
	if p.Instrs > 0 {
		p.IndirectDensity /= float64(p.Instrs)
	} else {
		p.IndirectDensity = 0
	}
	return p
}
