// Package cmdstream is the typed command-stream IR the execution pipeline
// is built around. Pinatubo's system stack (paper §5) talks to the memory
// in *extended DDR command sequences* — the command stream is the
// architecture's contract — so every stage of the pipeline shares one
// representation of it:
//
//	lower    — internal/pim emits a Program while executing: one
//	           KindRequest instruction per controller request (multi-row
//	           ACT, SA-op, WD-bypass write, buffer moves — the full
//	           ddr.Cmd sequence), one KindVerify instruction per lump-sum
//	           verification or ECC pass;
//	schedule — Program.Request lowers a program onto the event-driven
//	           channel scheduler (internal/chansim) with per-command
//	           bank/channel resources, for the planner and the batch
//	           executor;
//	execute  — internal/pimrt records the program of everything a
//	           scheduled operation put on the channel and derives its
//	           Cost, request count and vote tallies from it in exactly
//	           one place.
//
// Each instruction carries its cost annotation (Seconds, Joules) as priced
// by the controller's architectural model, so accounting is a fold over
// the program rather than a side channel maintained next to it.
package cmdstream

import (
	"pinatubo/internal/chansim"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/workload"
)

// Kind discriminates the instruction forms of the IR.
type Kind int

const (
	// KindRequest is one controller-executed hardware request: an extended
	// DDR command sequence (MRS mode write, multi-row activation, sense
	// steps, buffer moves, write-back, precharge) with its end-to-end cost.
	KindRequest Kind = iota
	// KindVerify is a lump-sum verification or ECC pass (read-back verify,
	// syndrome decode, check-bit reprogram) that occupies the destination's
	// bank for Seconds without an explicit command sequence. A zero-second
	// verify (the linear ECC fast path) carries energy only and leaves no
	// scheduling footprint.
	KindVerify
	// KindVoted is a replicated controller request: the operand set is
	// activated and sensed once per replica copy (R sequential
	// LWL-reset/activate/sense groups inside one command sequence) and the
	// sensed results majority-voted before write-back. It schedules and
	// prices exactly like KindRequest — the Cmds carry the full R-group
	// sequence — but stays distinguishable so vote accounting is derived
	// from the program, not tracked beside it. Votes holds the replica
	// count, Outvoted the disagreeing bit positions the vote overrode.
	KindVoted
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindVerify:
		return "verify"
	case KindVoted:
		return "voted"
	default:
		return "Kind(" + itoa(int(k)) + ")"
	}
}

// itoa avoids importing fmt for one error-path formatter.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Instr is one instruction of a lowered program.
type Instr struct {
	// Kind selects the form.
	Kind Kind
	// Cmds is the DDR command sequence of a KindRequest instruction (nil
	// for KindVerify).
	Cmds []ddr.Cmd
	// Addr locates the bank a KindVerify pass occupies.
	Addr memarch.RowAddr
	// Seconds is the instruction's simulated latency. For KindRequest it
	// equals ddr.Duration over Cmds as priced by the controller; for
	// KindVerify it is the lump-sum pass latency (0 on the linear ECC fast
	// path).
	Seconds float64
	// Joules is the instruction's simulated energy.
	Joules float64
	// Votes is the replica count of a KindVoted instruction (0 otherwise).
	Votes int
	// Outvoted is the number of bit positions where a KindVoted
	// instruction's replicas disagreed and the majority overrode the
	// minority (0 otherwise).
	Outvoted int64
}

// Program is an ordered sequence of instructions — the lowered form of one
// logical operation, including every resilience expansion (retries, depth
// splits, verification passes, ECC reprograms) in execution order.
type Program struct {
	Instrs []Instr
}

// Emit appends one instruction.
func (p *Program) Emit(in Instr) { p.Instrs = append(p.Instrs, in) }

// Append concatenates another program onto this one.
func (p *Program) Append(q Program) { p.Instrs = append(p.Instrs, q.Instrs...) }

// Len returns the instruction count.
func (p Program) Len() int { return len(p.Instrs) }

// Cost folds the program's cost annotations in program order — the same
// float-addition order the execution path accumulated them in, so the fold
// is bit-identical to the live accounting it replaces.
func (p Program) Cost() workload.Cost {
	var c workload.Cost
	for _, in := range p.Instrs {
		c.Add(workload.Cost{Seconds: in.Seconds, Joules: in.Joules})
	}
	return c
}

// Requests counts the controller-executed hardware requests. A voted
// request is one request: its replica groups share a single command
// sequence on the channel.
func (p Program) Requests() int {
	n := 0
	for _, in := range p.Instrs {
		if in.Kind == KindRequest || in.Kind == KindVoted {
			n++
		}
	}
	return n
}

// Votes folds the program's majority-vote accounting: how many voted
// requests ran and how many disagreeing bits their majorities overrode.
func (p Program) Votes() (votes int, outvoted int64) {
	for _, in := range p.Instrs {
		if in.Kind == KindVoted {
			votes++
			outvoted += in.Outvoted
		}
	}
	return votes, outvoted
}

// Channel returns the memory channel the program runs on: the channel of
// the first command or verify pass that names a bank. Programs are
// single-channel by construction — the controller rejects cross-rank
// operand sets, and a rank lives on one channel.
func (p Program) Channel() int {
	for _, in := range p.Instrs {
		switch in.Kind {
		case KindRequest, KindVoted:
			for _, c := range in.Cmds {
				if c.Kind != ddr.CmdMRS {
					return c.Addr.Channel
				}
			}
		case KindVerify:
			return in.Addr.Channel
		}
	}
	return 0
}

// Request lowers the program onto the channel scheduler: KindRequest
// instructions through chansim.FromDDR's per-command pricing (issue slots,
// exec times, bank resources), KindVerify passes as one command-bus issue
// slot plus a bank-busy interval. Zero-second verify passes (the linear
// ECC fast path) add energy but leave no scheduling footprint.
func (p Program) Request(name string, t nvm.Timing, bus ddr.BusParams, banks int) chansim.Request {
	req := chansim.Request{Name: name, Channel: p.Channel()}
	for _, in := range p.Instrs {
		switch in.Kind {
		case KindRequest, KindVoted:
			part := chansim.FromDDR(name, in.Cmds, t, bus, banks)
			req.Cmds = append(req.Cmds, part.Cmds...)
		case KindVerify:
			if in.Seconds <= 0 {
				continue
			}
			req.Cmds = append(req.Cmds, chansim.Cmd{
				Issue:    t.TCMD,
				Exec:     in.Seconds,
				Resource: chansim.BankResource(in.Addr, banks),
			})
		}
	}
	return req
}
