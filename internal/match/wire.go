package match

import (
	"fmt"

	"hoiho/internal/rex"
)

// Wire form: the fundamental fields of a compiled program, everything
// the binary corpus format (internal/corpusbin) must persist to bring
// an Engine back without recompiling. Derived dispatch state — minimum
// widths, single-byte exclusion fast paths, fixed tails, head/tail
// literals, the det classification, the tail trie — is recomputed by
// the shared finalize pass at decode, so the wire format stays small
// and cannot desynchronize from the matcher's optimizations.

// WireOp is one lowered op in serializable form.
type WireOp struct {
	// Kind is the opKind value (opLit, opSet, opExcl, opAlt).
	Kind uint8
	// Lit is the literal for opLit ops.
	Lit string
	// Set is the raw 128-bit ASCII set for opSet/opExcl ops.
	Set [2]uint64
	// Alts are the alternatives for opAlt ops.
	Alts []string
	// Opt marks an optional alternation.
	Opt bool
	// Capture marks the ASN capture op.
	Capture bool
}

// WireProgram is one compiled program in serializable form.
type WireProgram struct {
	// Index is the program's position in the regex list it compiled
	// from. Compile drops stdlib-uncompilable regexes, so indexes are
	// strictly increasing but may skip values.
	Index int
	// LeftOpen marks an unanchored-left program.
	LeftOpen bool
	// Oracle marks a program whose AST the lowering cannot represent:
	// it matches through the stdlib compilation of its source regex.
	Oracle bool
	// Ops is the lowered op sequence.
	Ops []WireOp
}

// Wire snapshots the engine's programs for serialization. The returned
// slices share no mutable state with the engine (op slices are copied;
// strings and alt slices are immutable by convention).
func (e *Engine) Wire() []WireProgram {
	out := make([]WireProgram, len(e.programs))
	for i, p := range e.programs {
		ops := make([]WireOp, len(p.ops))
		for j := range p.ops {
			o := &p.ops[j]
			ops[j] = WireOp{
				Kind:    uint8(o.kind),
				Lit:     o.lit,
				Set:     o.set,
				Alts:    o.alts,
				Opt:     o.opt,
				Capture: o.capture,
			}
		}
		out[i] = WireProgram{
			Index:    p.rxIndex,
			LeftOpen: p.leftOpen,
			Oracle:   p.oracle,
			Ops:      ops,
		}
	}
	return out
}

// EngineFromWire reconstructs an Engine from its wire form without
// recompiling the regexes: each program's derived dispatch state is
// recomputed by finalize, and the tail trie is rebuilt. regexes is the
// full source list the programs were compiled from (WireProgram.Index
// indexes into it). Each program's source must pass the syntax gate
// Compile applies, and it gets its stdlib compilation by Compile's rule
// (setStdlib): now for an oracle program, on first fallback for a
// non-det VM program, never for a det one. Learned conventions are
// almost all det, so a binary corpus load reaches ready-to-serve state
// without parsing or compiling regex text.
func EngineFromWire(progs []WireProgram, regexes []*rex.Regex) (*Engine, error) {
	e := &Engine{}
	last := -1
	for pi, wp := range progs {
		if wp.Index <= last || wp.Index >= len(regexes) {
			return nil, fmt.Errorf("match: wire program %d: index %d out of order or range (have %d regexes)",
				pi, wp.Index, len(regexes))
		}
		last = wp.Index
		r := regexes[wp.Index]
		if r == nil {
			return nil, fmt.Errorf("match: wire program %d: nil source regex %d", pi, wp.Index)
		}
		if !syntaxOK(r) {
			return nil, fmt.Errorf("match: wire program %d: source regex %d is not valid regexp syntax", pi, wp.Index)
		}
		p := &program{leftOpen: wp.LeftOpen, oracle: wp.Oracle, tailID: -1, rxIndex: wp.Index}
		p.ops = make([]op, len(wp.Ops))
		for j, wo := range wp.Ops {
			if wo.Kind > uint8(opAlt) {
				return nil, fmt.Errorf("match: wire program %d: unknown op kind %d", pi, wo.Kind)
			}
			alts := wo.Alts
			if opKind(wo.Kind) == opAlt && len(alts) == 0 {
				alts = []string{""} // "(?:)" matches the empty string
			}
			p.ops[j] = op{
				kind:    opKind(wo.Kind),
				lit:     wo.Lit,
				set:     wo.Set,
				alts:    alts,
				opt:     wo.Opt,
				capture: wo.Capture,
			}
		}
		p.finalize()
		p.setStdlib(r)
		e.programs = append(e.programs, p)
	}
	if len(e.programs) >= trieThreshold {
		e.trie = newTailTrie(e.programs)
	}
	return e, nil
}
