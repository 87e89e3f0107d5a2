package kernel

// The rule layer: a rule IS its Spec — a 2-bit state encoding plus truth
// tables and transition maps — and Compile lowers the tables to minimized
// branch-free word expressions once, at registration. The engine runs
// nothing else: EvalWords evaluates the compiled predicates 64 vertices per
// word, and Program.Next reads the same tables one vertex at a time (daemon
// steps). internal/mis checks each rule's Spec exhaustively against its
// reference transcription of the paper's definition (every used code ×
// realizable counter bits × coin × gate), so a mis-declared entry fails a
// test rather than silently changing the executions.
//
// Lane encoding contract: a vertex's 2-bit lane code is lo | hi<<1, and the
// lo bit IS the rule's black (ClassA) projection — that one invariant makes
// the stable-core word (lo &^ hasANbr) and the black projection rule-generic.
// Code 0 is therefore always a white state and code 1 a black one; when the
// rule feeds counter B, the ClassB states must be exactly code 3 (lo∧hi), so
// the classB word is one AND. Unused codes map to state 0 and their table
// entries are don't-cares.
//
// Predicate inputs are the four per-vertex bits the lanes maintain:
//
//	lo, hi — the state code
//	a      — counter A nonzero (has a black neighbor)
//	b      — counter B nonzero (has a ClassB neighbor; 3-state: black1)
//
// indexed as idx = lo | hi<<1 | a<<2 | b<<3 in the 16-entry tables. The
// predicates must be vertex-independent and depend on the counters only
// through zero/nonzero — exactly the shape of all three of the paper's rules.
//
// Transitions split the way the engine's worklist does:
//
//	active (coin-drawing): next code is CoinHi[code] on coin 1, CoinLo[code]
//	on coin 0 — the paper's rules never branch a coin outcome on a counter.
//
//	touched but not active (forced): next code is ForcedOn[code] /
//	ForcedOff[code] by the vertex's gate bit — the per-round side input a
//	mid-round sub-process exports (the 3-color switch value σ_{t-1}). Rules
//	without a gate lane must make both maps agree.

import (
	"fmt"

	"ssmis/internal/xrand"
)

// Spec declares a rule's bit-sliced semantics. See the package comment for
// the encoding contract. The zero value is invalid; Compile validates.
type Spec struct {
	// StateOf maps lane code (lo | hi<<1) to the rule's state value; 0 marks
	// the code unused. Code 0 must be a white (non-black) state and code 1 a
	// black one (the lo-bit invariant).
	StateOf [4]uint8
	// UseB engages the hasBNbr lane: counter B's zero/nonzero projection,
	// maintained incrementally like hasANbr. Requires code 3 in use (ClassB
	// states are exactly lo∧hi).
	UseB bool
	// UseGate engages the per-vertex gate lane, re-exported every round by
	// the rule's mid-round sub-process (engine.SubProcess). Only forced
	// transitions may consult it.
	UseGate bool
	// Active and Touched are 16-entry truth tables over idx = lo | hi<<1 |
	// a<<2 | b<<3 (build them with TruthTable). Touched must contain Active.
	Active, Touched uint16
	// CoinHi and CoinLo map an active vertex's code to its next code on coin
	// outcome 1 / 0.
	CoinHi, CoinLo [4]uint8
	// ForcedOn and ForcedOff map a touched-but-not-active vertex's code to
	// its next code when its gate bit is 1 / 0. Without a gate lane the maps
	// must agree wherever a forced transition can fire.
	ForcedOn, ForcedOff [4]uint8
}

// TruthTable builds a Spec predicate table from a closure over (code, a, b).
// Entries for unused codes are don't-cares — mirroring a used code usually
// minimizes best.
func TruthTable(f func(code int, a, b bool) bool) uint16 {
	var t uint16
	for idx := 0; idx < 16; idx++ {
		if f(idx&3, idx&4 != 0, idx&8 != 0) {
			t |= 1 << idx
		}
	}
	return t
}

// laneFn is one compiled predicate: a branch-free word expression over the
// four input lanes, evaluating 64 vertices at once. Bits outside the
// universe are unspecified; callers mask.
type laneFn func(lo, hi, a, b uint64) uint64

// invalidCode marks a state value that is not part of the encoding.
const invalidCode = 0xFF

// twoStateActive is the canonical 2-state activity table ¬(lo ⊕ a): the
// XNOR pattern the flip fast path recognizes.
const twoStateActive uint16 = 0xA5A5

// Program is a compiled Spec: minimized predicate expressions plus the
// state↔code maps. Compile once per rule (package-level), share across
// engines — a Program is immutable and safe for concurrent use.
type Program struct {
	spec            Spec
	active, touched laneFn
	sameTA          bool // Touched table ≡ Active table
	useHi           bool // some code ≥ 2 in use (second state lane engaged)
	fast2           bool // canonical 2-state shape: XOR-flip evaluation
	coinConst       bool // coin/forced targets independent of the current code
	cc              coinConstSel
	codeOf          [256]uint8
}

// coinConstSel is the word-level selector form of a coin-constant program's
// three transition targets: selector words are all-ones/all-zeros per target
// code bit, so evaluation composes each touched word's new lo/hi bits with a
// handful of boolean word ops (see evalWordsCoinConst).
type coinConstSel struct {
	chLo, chHi uint64 // CoinHi target code, bit-expanded
	clLo, clHi uint64 // CoinLo target code
	fLo, fHi   uint64 // forced target code
}

// sel bit-expands bit `bit` of code c into an all-ones/all-zeros word.
func sel(c uint8, bit uint8) uint64 {
	if c&bit != 0 {
		return ^uint64(0)
	}
	return 0
}

// Spec returns the compiled spec.
func (p *Program) Spec() Spec { return p.spec }

// UseHi reports whether the hi state lane is engaged.
func (p *Program) UseHi() bool { return p.useHi }

// UseB reports whether the hasBNbr lane is engaged.
func (p *Program) UseB() bool { return p.spec.UseB }

// UseGate reports whether the gate lane is engaged.
func (p *Program) UseGate() bool { return p.spec.UseGate }

// TouchedIsActive reports Touched ≡ Active (the worklist and the active set
// coincide, as for the 2-state rule).
func (p *Program) TouchedIsActive() bool { return p.sameTA }

// CodeOf returns the lane code of state s, or 0xFF if s is not part of the
// encoding.
func (p *Program) CodeOf(s uint8) uint8 { return p.codeOf[s] }

// NumStates returns the largest state value the encoding uses.
func (p *Program) NumStates() int {
	m := uint8(0)
	for _, s := range p.spec.StateOf {
		m = max(m, s)
	}
	return int(m)
}

// ActiveBit and TouchedBit read one truth-table entry (per-vertex probes:
// Next, and the engine's integrity recount).
func (p *Program) ActiveBit(code int, a, b bool) bool {
	return p.spec.Active>>tableIdx(code, a, b)&1 == 1
}

// TouchedBit reads one Touched table entry.
func (p *Program) TouchedBit(code int, a, b bool) bool {
	return p.spec.Touched>>tableIdx(code, a, b)&1 == 1
}

// Next is the rule's per-vertex transition, read straight off the Spec
// tables: the next state of a vertex in state s whose counter A and counter
// B are nonzero per a and b and whose gate bit is gate. A touched vertex
// that is active draws one coin from r at the given bias and moves to
// CoinHi (coin 1) or CoinLo (coin 0); a touched vertex that is not active
// takes its forced transition, ForcedOn or ForcedOff by the gate bit,
// drawing nothing; an untouched vertex keeps s. It returns the next state
// and the random bits drawn — EvalWords' transition and accounting, one
// vertex at a time. It panics if s is not part of the encoding.
func (p *Program) Next(s uint8, a, b, gate bool, r *xrand.Rand, bias float64) (uint8, int64) {
	c := p.codeOf[s]
	if c == invalidCode {
		panic(fmt.Sprintf("kernel: state %d not in the lane encoding", s))
	}
	code := int(c)
	if !p.TouchedBit(code, a, b) {
		return s, 0
	}
	var nc uint8
	var drawn int64
	switch {
	case p.ActiveBit(code, a, b):
		var heads bool
		heads, drawn = coin(r, bias)
		if heads {
			nc = p.spec.CoinHi[code]
		} else {
			nc = p.spec.CoinLo[code]
		}
	case gate:
		nc = p.spec.ForcedOn[code]
	default:
		nc = p.spec.ForcedOff[code]
	}
	return p.spec.StateOf[nc], drawn
}

func tableIdx(code int, a, b bool) int {
	idx := code
	if a {
		idx |= 4
	}
	if b {
		idx |= 8
	}
	return idx
}

// canBeActive / canBeForced report whether the tables let a vertex with the
// given code draw a coin / take a forced transition for some counter bits —
// the consultation domain of the transition maps.
func (s *Spec) canBeActive(code int) bool {
	for ab := 0; ab < 4; ab++ {
		if s.Active>>(code|ab<<2)&1 == 1 {
			return true
		}
	}
	return false
}

func (s *Spec) canBeForced(code int) bool {
	for ab := 0; ab < 4; ab++ {
		idx := code | ab<<2
		if s.Touched>>idx&1 == 1 && s.Active>>idx&1 == 0 {
			return true
		}
	}
	return false
}

// MustCompile is Compile that panics on error — for package-level rule
// programs, where a bad spec is a programming error.
func MustCompile(spec Spec) *Program {
	p, err := Compile(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Compile validates the spec's internal consistency and lowers its truth
// tables to minimized word expressions (recursive Shannon expansion with
// constant folding and XOR detection). The returned program is shared by
// every Lanes configured with it.
func Compile(spec Spec) (*Program, error) {
	p := &Program{spec: spec}
	for i := range p.codeOf {
		p.codeOf[i] = invalidCode
	}
	used := 0
	for c, s := range spec.StateOf {
		if s == 0 {
			continue
		}
		if p.codeOf[s] != invalidCode {
			return nil, fmt.Errorf("kernel: state %d encoded by codes %d and %d", s, p.codeOf[s], c)
		}
		p.codeOf[s] = uint8(c)
		used |= 1 << c
	}
	if used&1 == 0 || used&2 == 0 {
		return nil, fmt.Errorf("kernel: codes 0 (white) and 1 (black) must both be in use")
	}
	p.useHi = used&(4|8) != 0
	if spec.UseB && used&8 == 0 {
		return nil, fmt.Errorf("kernel: UseB requires code 3 (the ClassB state lo∧hi) in use")
	}
	if spec.Active&^spec.Touched != 0 {
		return nil, fmt.Errorf("kernel: Active table ⊄ Touched table")
	}
	for _, tbl := range []struct {
		name  string
		t     uint16
		indep uint16
		on    bool
	}{
		{"b", spec.Active, 8, !spec.UseB}, {"b", spec.Touched, 8, !spec.UseB},
		{"hi", spec.Active, 2, !p.useHi}, {"hi", spec.Touched, 2, !p.useHi},
	} {
		if tbl.on && dependsOn(tbl.t, tbl.indep) {
			return nil, fmt.Errorf("kernel: table depends on the %s bit but that lane is not engaged", tbl.name)
		}
	}
	for c := 0; c < 4; c++ {
		if used&(1<<c) == 0 {
			continue
		}
		if spec.canBeActive(c) {
			for _, nc := range []uint8{spec.CoinHi[c], spec.CoinLo[c]} {
				if nc > 3 || used&(1<<nc) == 0 {
					return nil, fmt.Errorf("kernel: coin transition of code %d targets unused code %d", c, nc)
				}
			}
		}
		if spec.canBeForced(c) {
			for _, nc := range []uint8{spec.ForcedOn[c], spec.ForcedOff[c]} {
				if nc > 3 || used&(1<<nc) == 0 {
					return nil, fmt.Errorf("kernel: forced transition of code %d targets unused code %d", c, nc)
				}
			}
			if !spec.UseGate && spec.ForcedOn[c] != spec.ForcedOff[c] {
				return nil, fmt.Errorf("kernel: forced transition of code %d reads the gate but UseGate is false", c)
			}
		}
	}
	p.active = compileTable(uint32(spec.Active), 3)
	p.sameTA = spec.Touched == spec.Active
	if p.sameTA {
		p.touched = p.active
	} else {
		p.touched = compileTable(uint32(spec.Touched), 3)
	}
	p.fast2 = !p.useHi && !spec.UseB && !spec.UseGate && p.sameTA &&
		spec.Active == twoStateActive &&
		spec.CoinHi[0] == 1 && spec.CoinHi[1] == 1 &&
		spec.CoinLo[0] == 0 && spec.CoinLo[1] == 0
	p.detectCoinConst(used)
	return p, nil
}

// detectCoinConst recognizes the coin-constant shape (the 3-state rule's):
// no gate lane, every active code draws toward the same CoinHi/CoinLo target
// pair, and every possible forced transition lands on one target code. Such
// a program's new-code bits are a pure word function of (touched, active,
// coin) — evalWordsCoinConst composes them without per-bit table lookups.
func (p *Program) detectCoinConst(used int) {
	spec := &p.spec
	if spec.UseGate {
		return
	}
	ch, cl, f := -1, -1, -1
	for c := 0; c < 4; c++ {
		if used&(1<<c) == 0 {
			continue
		}
		if spec.canBeActive(c) {
			switch {
			case ch == -1:
				ch, cl = int(spec.CoinHi[c]), int(spec.CoinLo[c])
			case ch != int(spec.CoinHi[c]) || cl != int(spec.CoinLo[c]):
				return
			}
		}
		if spec.canBeForced(c) {
			// ForcedOn ≡ ForcedOff here (validated above for gateless specs).
			switch {
			case f == -1:
				f = int(spec.ForcedOff[c])
			case f != int(spec.ForcedOff[c]):
				return
			}
		}
	}
	if ch == -1 {
		return // no active code: nothing to specialize
	}
	if f == -1 {
		f = 0 // no forced transition can fire; the selector is never consulted
	}
	p.coinConst = true
	p.cc = coinConstSel{
		chLo: sel(uint8(ch), 1), chHi: sel(uint8(ch), 2),
		clLo: sel(uint8(cl), 1), clHi: sel(uint8(cl), 2),
		fLo: sel(uint8(f), 1), fHi: sel(uint8(f), 2),
	}
}

// dependsOn reports whether table t depends on the variable whose index bit
// is vbit (2 = hi, 8 = b): some entry differs from its vbit-complement.
func dependsOn(t uint16, vbit uint16) bool {
	for idx := uint16(0); idx < 16; idx++ {
		if idx&vbit == 0 && t>>idx&1 != t>>(idx|vbit)&1 {
			return true
		}
	}
	return false
}

var (
	fnZero laneFn = func(_, _, _, _ uint64) uint64 { return 0 }
	fnOne  laneFn = func(_, _, _, _ uint64) uint64 { return ^uint64(0) }
)

// varWord selects input lane v (0 = lo, 1 = hi, 2 = a, 3 = b).
func varWord(v int) laneFn {
	switch v {
	case 0:
		return func(lo, _, _, _ uint64) uint64 { return lo }
	case 1:
		return func(_, hi, _, _ uint64) uint64 { return hi }
	case 2:
		return func(_, _, a, _ uint64) uint64 { return a }
	default:
		return func(_, _, _, b uint64) uint64 { return b }
	}
}

// compileTable lowers a truth table over variables 0..v (idx bit i = value
// of variable i) to a word expression by Shannon expansion on the highest
// variable: f = (x ∧ f₁) ∨ (¬x ∧ f₀) with the cofactors f₀, f₁ the table
// halves, folding the constant, equal-cofactor, and XOR (f₁ = ¬f₀) shapes so
// the common predicates come out at hand-minimized size (the 2-state
// activity table compiles to a ⊕ ¬lo, the XNOR identity).
func compileTable(table uint32, v int) laneFn {
	size := uint(1) << uint(v+1)
	full := uint32(1)<<size - 1
	table &= full
	if table == 0 {
		return fnZero
	}
	if table == full {
		return fnOne
	}
	half := size >> 1
	hmask := uint32(1)<<half - 1
	t0, t1 := table&hmask, table>>half
	if t0 == t1 {
		return compileTable(t0, v-1)
	}
	x := varWord(v)
	switch {
	case t1 == 0: // f = f₀ ∧ ¬x
		f0 := compileTable(t0, v-1)
		return func(lo, hi, a, b uint64) uint64 { return f0(lo, hi, a, b) &^ x(lo, hi, a, b) }
	case t1 == hmask: // f = x ∨ f₀
		f0 := compileTable(t0, v-1)
		return func(lo, hi, a, b uint64) uint64 { return x(lo, hi, a, b) | f0(lo, hi, a, b) }
	case t0 == 0: // f = x ∧ f₁
		f1 := compileTable(t1, v-1)
		return func(lo, hi, a, b uint64) uint64 { return x(lo, hi, a, b) & f1(lo, hi, a, b) }
	case t0 == hmask: // f = ¬x ∨ f₁
		f1 := compileTable(t1, v-1)
		return func(lo, hi, a, b uint64) uint64 { return ^x(lo, hi, a, b) | f1(lo, hi, a, b) }
	case t1 == ^t0&hmask: // f = x ⊕ f₀
		f0 := compileTable(t0, v-1)
		return func(lo, hi, a, b uint64) uint64 { return x(lo, hi, a, b) ^ f0(lo, hi, a, b) }
	default:
		f0 := compileTable(t0, v-1)
		f1 := compileTable(t1, v-1)
		return func(lo, hi, a, b uint64) uint64 {
			xw := x(lo, hi, a, b)
			return xw&f1(lo, hi, a, b) | f0(lo, hi, a, b)&^xw
		}
	}
}
