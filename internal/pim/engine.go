package pim

import (
	"fmt"

	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// Engine adapts the Pinatubo controller to the workload.Engine interface
// used by the evaluation. It prices a request by executing its sub-requests
// (row batches, intra-subarray OR chains, grouped-OR combines) on a
// controller against template operand placements, so the figures and the
// functional model can never drift apart. A cost is a sum of per-command
// times and per-bit energies, so it depends only on the request's shape:
// the engine memoises whole requests and the sub-requests they repeat
// (intra-subarray OR chains, grouped-OR combines).
//
// The variant's one-step OR depth distinguishes "Pinatubo-2" (pairwise only,
// what STT-MRAM-class sensing would give) from "Pinatubo-128" (the PCM
// multi-row configuration). Requests wider than the depth are chained
// through an accumulator row, paying the intermediate writebacks — exactly
// why the paper's multi-row operations win.
type Engine struct {
	ctl      *Controller
	maxRows  int
	channels int
	// cache memoises OpCost by spec: evaluation traces repeat identical
	// requests thousands of times, and the controller execution that
	// prices a spec is deterministic.
	cache map[costKey]workload.Cost
	// chains memoises chainedIntraOR by (operands, bits): grouped ORs
	// repeat the same group sizes across many distinct specs.
	chains map[[2]int]workload.Cost
}

// costKey identifies a request for memoisation.
type costKey struct {
	op        sense.Op
	operands  int
	bits      int
	placement workload.Placement
	groups    string
}

func keyFor(spec workload.OpSpec) costKey {
	k := costKey{
		op:        spec.Op,
		operands:  spec.Operands,
		bits:      spec.Bits,
		placement: spec.Placement,
	}
	if spec.Groups != nil {
		var sb []byte
		for _, g := range spec.Groups {
			sb = fmt.Appendf(sb, "%d,", g)
		}
		k.groups = string(sb)
	}
	return k
}

// NewEngine builds a Pinatubo engine on a fresh memory of the given
// technology with the default geometry. maxRows caps the one-step OR depth
// (it is additionally clamped to the technology's sensing limit).
func NewEngine(tech nvm.Tech, maxRows int) (*Engine, error) {
	return NewEngineWithGeometry(tech, maxRows, memarch.Default())
}

// NewEngineWithGeometry is NewEngine with an explicit memory organisation —
// the hook the ablation studies use to sweep the column-mux ratio and
// subarray shape.
func NewEngineWithGeometry(tech nvm.Tech, maxRows int, geo memarch.Geometry) (*Engine, error) {
	mem, err := memarch.NewMemory(geo, nvm.Get(tech))
	if err != nil {
		return nil, err
	}
	ctl, err := NewController(mem, 0) // pricing engine: skip analog sampling
	if err != nil {
		return nil, err
	}
	if maxRows < 2 {
		return nil, fmt.Errorf("pim: engine needs maxRows >= 2, got %d", maxRows)
	}
	if lim := ctl.MaxORRows(); maxRows > lim {
		maxRows = lim
	}
	return &Engine{
		ctl:      ctl,
		maxRows:  maxRows,
		channels: geo.Channels,
		cache:    make(map[costKey]workload.Cost),
		chains:   make(map[[2]int]workload.Cost),
	}, nil
}

// Name implements workload.Engine.
func (e *Engine) Name() string { return fmt.Sprintf("Pinatubo-%d", e.maxRows) }

// MaxRows returns the engine's one-step OR depth.
func (e *Engine) MaxRows() int { return e.maxRows }

// Parallelism implements workload.Engine: one in-flight PIM op per channel
// (multi-row activation is power hungry; one rank operates at a time).
func (e *Engine) Parallelism() float64 { return float64(e.channels) }

// templates returns the operand addresses and destination for a placement.
// The address generators guarantee pairwise-distinct rows and the intended
// placement class for any count the engine produces.
func (e *Engine) srcAddr(p workload.Placement, i int) memarch.RowAddr {
	geo := e.ctl.Memory().Geometry()
	switch p {
	case workload.PlaceIntra:
		return memarch.RowAddr{Bank: 0, Subarray: 0, Row: i % (geo.RowsPerSubarray - 2)}
	case workload.PlaceInterSub:
		nsub := geo.SubarraysPerBank - 1
		return memarch.RowAddr{Bank: 0, Subarray: 1 + i%nsub, Row: i / nsub}
	default: // PlaceInterBank
		nb := geo.BanksPerChip
		return memarch.RowAddr{Bank: i % nb, Subarray: 1 + (i/nb)%(geo.SubarraysPerBank-1), Row: i / (nb * (geo.SubarraysPerBank - 1))}
	}
}

func (e *Engine) dstAddr(p workload.Placement) memarch.RowAddr {
	geo := e.ctl.Memory().Geometry()
	switch p {
	case workload.PlaceIntra:
		return memarch.RowAddr{Bank: 0, Subarray: 0, Row: geo.RowsPerSubarray - 1}
	case workload.PlaceInterSub:
		return memarch.RowAddr{Bank: 0, Subarray: 0, Row: 0}
	default:
		return memarch.RowAddr{Bank: 0, Subarray: 0, Row: 0}
	}
}

// accAddr is the accumulator row for chained requests.
func (e *Engine) accAddr(p workload.Placement) memarch.RowAddr {
	geo := e.ctl.Memory().Geometry()
	a := e.dstAddr(p)
	a.Row = geo.RowsPerSubarray - 2
	return a
}

// exec runs one controller op and converts its result to a cost.
func (e *Engine) exec(op sense.Op, srcs []memarch.RowAddr, bits int, dst memarch.RowAddr) (workload.Cost, error) {
	res, err := e.ctl.Execute(op, srcs, bits, &dst)
	if err != nil {
		return workload.Cost{}, err
	}
	return workload.Cost{Seconds: res.Seconds, Joules: res.Energy.Total()}, nil
}

// OpCost implements workload.Engine.
func (e *Engine) OpCost(spec workload.OpSpec) (workload.Cost, error) {
	if err := spec.Validate(); err != nil {
		return workload.Cost{}, err
	}
	key := keyFor(spec)
	if c, ok := e.cache[key]; ok {
		return c, nil
	}
	rowBits := e.ctl.Memory().Geometry().RowBits()
	var total workload.Cost
	remaining := spec.Bits
	for remaining > 0 {
		bits := remaining
		if bits > rowBits {
			bits = rowBits
		}
		remaining -= bits
		c, err := e.batchCost(spec, bits)
		if err != nil {
			return workload.Cost{}, err
		}
		total.Add(c)
	}
	e.cache[key] = total
	return total, nil
}

// batchCost prices one row-sized batch of the request.
func (e *Engine) batchCost(spec workload.OpSpec, bits int) (workload.Cost, error) {
	dst := e.dstAddr(spec.Placement)
	var total workload.Cost

	switch spec.Op {
	case sense.OpINV, sense.OpRead:
		c, err := e.exec(spec.Op, []memarch.RowAddr{e.srcAddr(spec.Placement, 0)}, bits, dst)
		if err != nil {
			return workload.Cost{}, err
		}
		total.Add(c)

	case sense.OpAND, sense.OpXOR:
		// Pairwise chain: (a op b) op c ... through the accumulator.
		acc := e.accAddr(spec.Placement)
		for k := 1; k < spec.Operands; k++ {
			a := e.srcAddr(spec.Placement, k-1)
			if k > 1 {
				a = acc
			}
			b := e.srcAddr(spec.Placement, k)
			out := acc
			if k == spec.Operands-1 {
				out = dst
			}
			c, err := e.exec(spec.Op, []memarch.RowAddr{a, b}, bits, out)
			if err != nil {
				return workload.Cost{}, err
			}
			total.Add(c)
		}

	case sense.OpOR:
		if spec.Groups != nil && len(spec.Groups) > 1 {
			return e.groupedOR(spec, bits)
		}
		if spec.Placement == workload.PlaceIntra {
			return e.chainedIntraOR(spec.Operands, bits)
		}
		// Inter paths read operands serially anyway; issue in request-cap
		// chunks through the accumulator.
		acc := e.accAddr(spec.Placement)
		done := 0
		first := true
		for done < spec.Operands {
			take := spec.Operands - done
			if max := InterORLimit; first && take > max {
				take = max
			} else if !first && take > InterORLimit-1 {
				take = InterORLimit - 1
			}
			srcs := make([]memarch.RowAddr, 0, take+1)
			if !first {
				srcs = append(srcs, acc)
			}
			for i := 0; i < take; i++ {
				srcs = append(srcs, e.srcAddr(spec.Placement, done+i))
			}
			out := acc
			if done+take == spec.Operands {
				out = e.dstAddr(spec.Placement)
			}
			c, err := e.exec(sense.OpOR, srcs, bits, out)
			if err != nil {
				return workload.Cost{}, err
			}
			total.Add(c)
			done += take
			first = false
		}

	default:
		return workload.Cost{}, fmt.Errorf("pim: engine cannot price op %v", spec.Op)
	}
	return total, nil
}

// groupedOR prices a scheduler-partitioned OR: each subarray-local group
// collapses with an intra-subarray multi-row OR (free for single-operand
// groups — the row itself is the partial result), then the per-group
// partial rows combine over the inter-subarray/bank path.
func (e *Engine) groupedOR(spec workload.OpSpec, bits int) (workload.Cost, error) {
	var total workload.Cost
	for _, g := range spec.Groups {
		if g < 2 {
			continue
		}
		c, err := e.chainedIntraOR(g, bits)
		if err != nil {
			return workload.Cost{}, err
		}
		total.Add(c)
	}
	combine := workload.OpSpec{
		Op:        sense.OpOR,
		Operands:  len(spec.Groups),
		Bits:      bits,
		Placement: spec.Placement,
	}
	if combine.Operands < 2 {
		return total, nil
	}
	c, err := e.OpCost(combine)
	if err != nil {
		return workload.Cost{}, err
	}
	total.Add(c)
	return total, nil
}

// chainedIntraOR prices an n-operand intra-subarray OR at the engine's
// one-step depth, chaining through an accumulator when n exceeds it.
func (e *Engine) chainedIntraOR(n, bits int) (workload.Cost, error) {
	key := [2]int{n, bits}
	if c, ok := e.chains[key]; ok {
		return c, nil
	}
	var total workload.Cost
	acc := e.accAddr(workload.PlaceIntra)
	dst := e.dstAddr(workload.PlaceIntra)

	take := n
	if take > e.maxRows {
		take = e.maxRows
	}
	srcs := make([]memarch.RowAddr, 0, e.maxRows)
	for i := 0; i < take; i++ {
		srcs = append(srcs, e.srcAddr(workload.PlaceIntra, i))
	}
	out := acc
	if take == n {
		out = dst
	}
	c, err := e.exec(sense.OpOR, srcs, bits, out)
	if err != nil {
		return workload.Cost{}, err
	}
	total.Add(c)
	done := take
	for done < n {
		take = n - done
		if take > e.maxRows-1 {
			take = e.maxRows - 1
		}
		srcs = srcs[:0]
		srcs = append(srcs, acc)
		for i := 0; i < take; i++ {
			srcs = append(srcs, e.srcAddr(workload.PlaceIntra, done+i))
		}
		out = acc
		if done+take == n {
			out = dst
		}
		c, err := e.exec(sense.OpOR, srcs, bits, out)
		if err != nil {
			return workload.Cost{}, err
		}
		total.Add(c)
		done += take
	}
	e.chains[key] = total
	return total, nil
}

var _ workload.Engine = (*Engine)(nil)
