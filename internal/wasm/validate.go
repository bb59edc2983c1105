package wasm

import (
	"errors"
	"fmt"
)

// ErrInvalidModule reports a module that is well-formed binary-wise but
// fails validation (type checking, index bounds, stack discipline).
var ErrInvalidModule = errors.New("wasm: invalid module")

// Validate performs full module validation per the WebAssembly MVP spec:
// index-space bounds, limits well-formedness, constant-expression typing,
// and per-function stack-discipline type checking.
func Validate(m *Module) error {
	if len(m.Memories)+countImports(m, ExternMemory) > 1 {
		return fmt.Errorf("%w: at most one memory", ErrInvalidModule)
	}
	if len(m.Tables)+countImports(m, ExternTable) > 1 {
		return fmt.Errorf("%w: at most one table", ErrInvalidModule)
	}
	for _, imp := range m.Imports {
		if imp.Kind == ExternFunc && int(imp.TypeIdx) >= len(m.Types) {
			return fmt.Errorf("%w: import %s.%s: type index %d out of range",
				ErrInvalidModule, imp.Module, imp.Name, imp.TypeIdx)
		}
	}
	for i, mem := range m.Memories {
		if err := checkLimits(mem, MaxPages); err != nil {
			return fmt.Errorf("%w: memory %d: %v", ErrInvalidModule, i, err)
		}
	}
	for i, tbl := range m.Tables {
		if err := checkLimits(tbl, 1<<32-1); err != nil {
			return fmt.Errorf("%w: table %d: %v", ErrInvalidModule, i, err)
		}
	}

	numFuncs := uint32(m.NumImportedFuncs() + len(m.Funcs))
	numGlobals := uint32(m.NumImportedGlobals() + len(m.Globals))

	for i, g := range m.Globals {
		// MVP restriction: global initializers may reference only
		// *imported* globals.
		if err := checkConstExpr(m, g.Init, g.Type.Type, uint32(m.NumImportedGlobals())); err != nil {
			return fmt.Errorf("%w: global %d: %v", ErrInvalidModule, i, err)
		}
	}
	for i, seg := range m.Elems {
		if len(m.Tables)+countImports(m, ExternTable) == 0 {
			return fmt.Errorf("%w: element segment %d without table", ErrInvalidModule, i)
		}
		if err := checkConstExpr(m, seg.Offset, ValI32, uint32(m.NumImportedGlobals())); err != nil {
			return fmt.Errorf("%w: element segment %d: %v", ErrInvalidModule, i, err)
		}
		for _, fi := range seg.FuncIndices {
			if fi >= numFuncs {
				return fmt.Errorf("%w: element segment %d: func index %d out of range", ErrInvalidModule, i, fi)
			}
		}
		// A constant offset into a module-defined table is statically
		// checkable against the table's guaranteed minimum size; reject
		// segments that could never fit rather than deferring to an
		// instantiation failure. (Imported tables and global-get offsets
		// stay a run-time concern.)
		if len(m.Tables) > 0 && seg.Offset.Op == OpI32Const {
			end := uint64(uint32(seg.Offset.Imm)) + uint64(len(seg.FuncIndices))
			if end > uint64(m.Tables[0].Min) {
				return fmt.Errorf("%w: element segment %d: [%d, %d) exceeds table minimum size %d",
					ErrInvalidModule, i, uint32(seg.Offset.Imm), end, m.Tables[0].Min)
			}
		}
	}
	for i, seg := range m.Data {
		if len(m.Memories)+countImports(m, ExternMemory) == 0 {
			return fmt.Errorf("%w: data segment %d without memory", ErrInvalidModule, i)
		}
		if err := checkConstExpr(m, seg.Offset, ValI32, uint32(m.NumImportedGlobals())); err != nil {
			return fmt.Errorf("%w: data segment %d: %v", ErrInvalidModule, i, err)
		}
	}

	seenExports := make(map[string]bool, len(m.Exports))
	for _, exp := range m.Exports {
		if seenExports[exp.Name] {
			return fmt.Errorf("%w: duplicate export %q", ErrInvalidModule, exp.Name)
		}
		seenExports[exp.Name] = true
		var limit uint32
		switch exp.Kind {
		case ExternFunc:
			limit = numFuncs
		case ExternGlobal:
			limit = numGlobals
		case ExternMemory:
			limit = uint32(len(m.Memories) + countImports(m, ExternMemory))
		case ExternTable:
			limit = uint32(len(m.Tables) + countImports(m, ExternTable))
		}
		if exp.Index >= limit {
			return fmt.Errorf("%w: export %q: index %d out of range", ErrInvalidModule, exp.Name, exp.Index)
		}
	}

	if m.Start >= 0 {
		ft, err := m.FuncTypeAt(uint32(m.Start))
		if err != nil {
			return fmt.Errorf("%w: start: %v", ErrInvalidModule, err)
		}
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return fmt.Errorf("%w: start function must have type () -> ()", ErrInvalidModule)
		}
	}

	// One validator serves every function: its locals/stack/ctrl scratch is
	// reset (not reallocated) per body, which matters during registration
	// storms where validation runs thousands of times back to back.
	v := &funcValidator{m: m}
	for i := range m.Funcs {
		if int(m.Funcs[i].TypeIdx) >= len(m.Types) {
			return fmt.Errorf("%w: func %d: type index out of range", ErrInvalidModule, i)
		}
		if err := v.validateFunc(&m.Funcs[i]); err != nil {
			name := m.Funcs[i].Name
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return fmt.Errorf("%w: func %s: %v", ErrInvalidModule, name, err)
		}
	}
	return nil
}

func countImports(m *Module, kind ExternKind) int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == kind {
			n++
		}
	}
	return n
}

func checkLimits(l Limits, bound uint64) error {
	if uint64(l.Min) > bound {
		return fmt.Errorf("min %d exceeds bound %d", l.Min, bound)
	}
	if l.HasMax {
		if uint64(l.Max) > bound {
			return fmt.Errorf("max %d exceeds bound %d", l.Max, bound)
		}
		if l.Max < l.Min {
			return fmt.Errorf("max %d below min %d", l.Max, l.Min)
		}
	}
	return nil
}

func checkConstExpr(m *Module, in Instr, want ValType, numImportedGlobals uint32) error {
	var got ValType
	switch in.Op {
	case OpI32Const:
		got = ValI32
	case OpI64Const:
		got = ValI64
	case OpF32Const:
		got = ValF32
	case OpF64Const:
		got = ValF64
	case OpGlobalGet:
		if uint32(in.Imm) >= numImportedGlobals {
			return fmt.Errorf("initializer references non-imported global %d", in.Imm)
		}
		gt, err := m.GlobalTypeAt(uint32(in.Imm))
		if err != nil {
			return err
		}
		if gt.Mutable {
			return fmt.Errorf("initializer references mutable global %d", in.Imm)
		}
		got = gt.Type
	default:
		return fmt.Errorf("non-constant instruction %s", in.Op)
	}
	if got != want {
		return fmt.Errorf("initializer type %s, want %s", got, want)
	}
	return nil
}

// unknownType marks a polymorphic stack slot produced in unreachable code.
const unknownType ValType = 0

type ctrlFrame struct {
	op          Opcode
	results     []ValType // types the block leaves on the stack
	height      int       // value-stack height at entry
	unreachable bool
}

type funcValidator struct {
	m       *Module
	f       *Func
	locals  []ValType
	stack   []ValType
	ctrls   []ctrlFrame
	results []ValType
}

func (v *funcValidator) validateFunc(f *Func) error {
	ft := v.m.Types[f.TypeIdx]
	v.f = f
	v.results = ft.Results
	v.locals = append(v.locals[:0], ft.Params...)
	v.locals = append(v.locals, f.Locals...)
	v.stack = v.stack[:0]
	v.ctrls = v.ctrls[:0]
	// The implicit function-body block.
	v.pushCtrl(OpBlock, ft.Results)
	for i, in := range f.Body {
		if err := v.step(in); err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, in, err)
		}
	}
	// The implicit final `end`.
	if err := v.step(Instr{Op: OpEnd}); err != nil {
		return fmt.Errorf("implicit end: %w", err)
	}
	if len(v.stack) != len(ft.Results) {
		return fmt.Errorf("%d values remain on stack, want %d", len(v.stack), len(ft.Results))
	}
	return nil
}

func (v *funcValidator) pushVal(t ValType) { v.stack = append(v.stack, t) }

func (v *funcValidator) popVal() (ValType, error) {
	frame := &v.ctrls[len(v.ctrls)-1]
	if len(v.stack) == frame.height {
		if frame.unreachable {
			return unknownType, nil
		}
		return 0, errors.New("stack underflow")
	}
	t := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return t, nil
}

func (v *funcValidator) popExpect(want ValType) error {
	got, err := v.popVal()
	if err != nil {
		return err
	}
	if got != want && got != unknownType && want != unknownType {
		return fmt.Errorf("type mismatch: got %s, want %s", got, want)
	}
	return nil
}

func (v *funcValidator) pushCtrl(op Opcode, results []ValType) {
	v.ctrls = append(v.ctrls, ctrlFrame{op: op, results: results, height: len(v.stack)})
}

func (v *funcValidator) popCtrl() (ctrlFrame, error) {
	if len(v.ctrls) == 0 {
		return ctrlFrame{}, errors.New("unbalanced end")
	}
	frame := v.ctrls[len(v.ctrls)-1]
	// The block must leave exactly its result types.
	for i := len(frame.results) - 1; i >= 0; i-- {
		if err := v.popExpect(frame.results[i]); err != nil {
			return ctrlFrame{}, fmt.Errorf("block result: %w", err)
		}
	}
	if len(v.stack) != frame.height {
		return ctrlFrame{}, fmt.Errorf("%d extra values at end of block", len(v.stack)-frame.height)
	}
	v.ctrls = v.ctrls[:len(v.ctrls)-1]
	return frame, nil
}

// labelTypes returns the types a branch to the frame must supply: for a loop
// the continuation is the loop start (no values in MVP), otherwise the block
// results.
func labelTypes(f ctrlFrame) []ValType {
	if f.op == OpLoop {
		return nil
	}
	return f.results
}

func (v *funcValidator) markUnreachable() {
	frame := &v.ctrls[len(v.ctrls)-1]
	v.stack = v.stack[:frame.height]
	frame.unreachable = true
}

func (v *funcValidator) frameAt(label uint64) (ctrlFrame, error) {
	if label >= uint64(len(v.ctrls)) {
		return ctrlFrame{}, fmt.Errorf("label %d out of range (depth %d)", label, len(v.ctrls))
	}
	return v.ctrls[len(v.ctrls)-1-int(label)], nil
}

func blockResults(bt byte) []ValType {
	if bt == BlockTypeEmpty {
		return nil
	}
	return []ValType{ValType(bt)}
}

func (v *funcValidator) step(in Instr) error {
	switch in.Op {
	case OpNop:
		return nil
	case OpUnreachable:
		v.markUnreachable()
		return nil
	case OpBlock, OpLoop:
		v.pushCtrl(in.Op, blockResults(byte(in.Imm)))
		return nil
	case OpIf:
		if err := v.popExpect(ValI32); err != nil {
			return err
		}
		v.pushCtrl(OpIf, blockResults(byte(in.Imm)))
		return nil
	case OpElse:
		frame := v.ctrls[len(v.ctrls)-1]
		if frame.op != OpIf {
			return errors.New("else without if")
		}
		if _, err := v.popCtrl(); err != nil {
			return err
		}
		v.pushCtrl(OpElse, frame.results)
		return nil
	case OpEnd:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		if frame.op == OpIf && len(frame.results) > 0 {
			return errors.New("if with result type requires else")
		}
		for _, r := range frame.results {
			v.pushVal(r)
		}
		return nil
	case OpBr:
		frame, err := v.frameAt(in.Imm)
		if err != nil {
			return err
		}
		lt := labelTypes(frame)
		for i := len(lt) - 1; i >= 0; i-- {
			if err := v.popExpect(lt[i]); err != nil {
				return err
			}
		}
		v.markUnreachable()
		return nil
	case OpBrIf:
		if err := v.popExpect(ValI32); err != nil {
			return err
		}
		frame, err := v.frameAt(in.Imm)
		if err != nil {
			return err
		}
		lt := labelTypes(frame)
		for i := len(lt) - 1; i >= 0; i-- {
			if err := v.popExpect(lt[i]); err != nil {
				return err
			}
		}
		for _, t := range lt {
			v.pushVal(t)
		}
		return nil
	case OpBrTable:
		if err := v.popExpect(ValI32); err != nil {
			return err
		}
		defFrame, err := v.frameAt(in.Imm)
		if err != nil {
			return err
		}
		defTypes := labelTypes(defFrame)
		if uint32(in.Imm2) > 0 && int(uint32(in.Imm2>>32))+int(uint32(in.Imm2)) > len(v.f.BrLabels) {
			return errors.New("br_table labels out of pool range")
		}
		for _, l := range BrTargets(v.f.BrLabels, in) {
			f, err := v.frameAt(uint64(l))
			if err != nil {
				return err
			}
			lt := labelTypes(f)
			if len(lt) != len(defTypes) {
				return errors.New("br_table targets have mismatched arity")
			}
			for i := range lt {
				if lt[i] != defTypes[i] {
					return errors.New("br_table targets have mismatched types")
				}
			}
		}
		for i := len(defTypes) - 1; i >= 0; i-- {
			if err := v.popExpect(defTypes[i]); err != nil {
				return err
			}
		}
		v.markUnreachable()
		return nil
	case OpReturn:
		for i := len(v.results) - 1; i >= 0; i-- {
			if err := v.popExpect(v.results[i]); err != nil {
				return err
			}
		}
		v.markUnreachable()
		return nil
	case OpCall:
		ft, err := v.m.FuncTypeAt(uint32(in.Imm))
		if err != nil {
			return err
		}
		return v.applySig(ft)
	case OpCallIndirect:
		if len(v.m.Tables)+countImports(v.m, ExternTable) == 0 {
			return errors.New("call_indirect without table")
		}
		if int(in.Imm) >= len(v.m.Types) {
			return fmt.Errorf("call_indirect type index %d out of range", in.Imm)
		}
		if err := v.popExpect(ValI32); err != nil {
			return err
		}
		return v.applySig(v.m.Types[in.Imm])
	case OpDrop:
		_, err := v.popVal()
		return err
	case OpSelect:
		if err := v.popExpect(ValI32); err != nil {
			return err
		}
		t1, err := v.popVal()
		if err != nil {
			return err
		}
		t2, err := v.popVal()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return fmt.Errorf("select operand types differ: %s vs %s", t1, t2)
		}
		if t1 == unknownType {
			t1 = t2
		}
		v.pushVal(t1)
		return nil
	case OpLocalGet, OpLocalSet, OpLocalTee:
		if in.Imm >= uint64(len(v.locals)) {
			return fmt.Errorf("local index %d out of range", in.Imm)
		}
		t := v.locals[in.Imm]
		switch in.Op {
		case OpLocalGet:
			v.pushVal(t)
		case OpLocalSet:
			return v.popExpect(t)
		case OpLocalTee:
			if err := v.popExpect(t); err != nil {
				return err
			}
			v.pushVal(t)
		}
		return nil
	case OpGlobalGet, OpGlobalSet:
		gt, err := v.m.GlobalTypeAt(uint32(in.Imm))
		if err != nil {
			return err
		}
		if in.Op == OpGlobalGet {
			v.pushVal(gt.Type)
			return nil
		}
		if !gt.Mutable {
			return fmt.Errorf("global.set of immutable global %d", in.Imm)
		}
		return v.popExpect(gt.Type)
	case OpMemorySize, OpMemoryGrow:
		if len(v.m.Memories)+countImports(v.m, ExternMemory) == 0 {
			return errors.New("memory instruction without memory")
		}
		if in.Op == OpMemoryGrow {
			if err := v.popExpect(ValI32); err != nil {
				return err
			}
		}
		v.pushVal(ValI32)
		return nil
	case OpI32Const:
		v.pushVal(ValI32)
		return nil
	case OpI64Const:
		v.pushVal(ValI64)
		return nil
	case OpF32Const:
		v.pushVal(ValF32)
		return nil
	case OpF64Const:
		v.pushVal(ValF64)
		return nil
	}

	if kind, ok := memOpShape(in.Op); ok {
		if len(v.m.Memories)+countImports(v.m, ExternMemory) == 0 {
			return errors.New("memory instruction without memory")
		}
		if uint32(1)<<in.Imm2 > kind.width {
			return fmt.Errorf("alignment 2^%d exceeds access width %d", in.Imm2, kind.width)
		}
		if kind.store {
			if err := v.popExpect(kind.val); err != nil {
				return err
			}
			return v.popExpect(ValI32) // address
		}
		if err := v.popExpect(ValI32); err != nil {
			return err
		}
		v.pushVal(kind.val)
		return nil
	}

	if sig, ok := numericSig(in.Op); ok {
		for i := len(sig.in) - 1; i >= 0; i-- {
			if err := v.popExpect(sig.in[i]); err != nil {
				return err
			}
		}
		v.pushVal(sig.out)
		return nil
	}
	return fmt.Errorf("unhandled opcode %s", in.Op)
}

func (v *funcValidator) applySig(ft FuncType) error {
	for i := len(ft.Params) - 1; i >= 0; i-- {
		if err := v.popExpect(ft.Params[i]); err != nil {
			return err
		}
	}
	for _, r := range ft.Results {
		v.pushVal(r)
	}
	return nil
}

type memShape struct {
	val   ValType
	width uint32
	store bool
}

func memOpShape(op Opcode) (memShape, bool) {
	switch op {
	case OpI32Load:
		return memShape{ValI32, 4, false}, true
	case OpI64Load:
		return memShape{ValI64, 8, false}, true
	case OpF32Load:
		return memShape{ValF32, 4, false}, true
	case OpF64Load:
		return memShape{ValF64, 8, false}, true
	case OpI32Load8S, OpI32Load8U:
		return memShape{ValI32, 1, false}, true
	case OpI32Load16S, OpI32Load16U:
		return memShape{ValI32, 2, false}, true
	case OpI64Load8S, OpI64Load8U:
		return memShape{ValI64, 1, false}, true
	case OpI64Load16S, OpI64Load16U:
		return memShape{ValI64, 2, false}, true
	case OpI64Load32S, OpI64Load32U:
		return memShape{ValI64, 4, false}, true
	case OpI32Store:
		return memShape{ValI32, 4, true}, true
	case OpI64Store:
		return memShape{ValI64, 8, true}, true
	case OpF32Store:
		return memShape{ValF32, 4, true}, true
	case OpF64Store:
		return memShape{ValF64, 8, true}, true
	case OpI32Store8:
		return memShape{ValI32, 1, true}, true
	case OpI32Store16:
		return memShape{ValI32, 2, true}, true
	case OpI64Store8:
		return memShape{ValI64, 1, true}, true
	case OpI64Store16:
		return memShape{ValI64, 2, true}, true
	case OpI64Store32:
		return memShape{ValI64, 4, true}, true
	}
	return memShape{}, false
}

type numSig struct {
	in  []ValType
	out ValType
}

// numericSigs is a dense table: numericSig runs once per validated numeric
// instruction, so the map built by buildNumericSigs is flattened to an
// array indexed by opcode.
var numericSigs, numericSigOK = func() (tab [256]numSig, ok [256]bool) {
	for op, sig := range buildNumericSigs() {
		tab[op], ok[op] = sig, true
	}
	return
}()

func numericSig(op Opcode) (numSig, bool) {
	return numericSigs[op], numericSigOK[op]
}

func buildNumericSigs() map[Opcode]numSig {
	sigs := make(map[Opcode]numSig, 128)
	unop := func(ops []Opcode, t ValType) {
		for _, op := range ops {
			sigs[op] = numSig{in: []ValType{t}, out: t}
		}
	}
	binop := func(lo, hi Opcode, t ValType) {
		for op := lo; op <= hi; op++ {
			sigs[op] = numSig{in: []ValType{t, t}, out: t}
		}
	}
	cmp := func(lo, hi Opcode, t ValType) {
		for op := lo; op <= hi; op++ {
			sigs[op] = numSig{in: []ValType{t, t}, out: ValI32}
		}
	}
	sigs[OpI32Eqz] = numSig{in: []ValType{ValI32}, out: ValI32}
	sigs[OpI64Eqz] = numSig{in: []ValType{ValI64}, out: ValI32}
	cmp(OpI32Eq, OpI32GeU, ValI32)
	cmp(OpI64Eq, OpI64GeU, ValI64)
	cmp(OpF32Eq, OpF32Ge, ValF32)
	cmp(OpF64Eq, OpF64Ge, ValF64)
	unop([]Opcode{OpI32Clz, OpI32Ctz, OpI32Popcnt}, ValI32)
	binop(OpI32Add, OpI32Rotr, ValI32)
	unop([]Opcode{OpI64Clz, OpI64Ctz, OpI64Popcnt}, ValI64)
	binop(OpI64Add, OpI64Rotr, ValI64)
	unop([]Opcode{OpF32Abs, OpF32Neg, OpF32Ceil, OpF32Floor, OpF32Trunc, OpF32Nearest, OpF32Sqrt}, ValF32)
	binop(OpF32Add, OpF32Copysign, ValF32)
	unop([]Opcode{OpF64Abs, OpF64Neg, OpF64Ceil, OpF64Floor, OpF64Trunc, OpF64Nearest, OpF64Sqrt}, ValF64)
	binop(OpF64Add, OpF64Copysign, ValF64)

	conv := func(op Opcode, from, to ValType) {
		sigs[op] = numSig{in: []ValType{from}, out: to}
	}
	conv(OpI32WrapI64, ValI64, ValI32)
	conv(OpI32TruncF32S, ValF32, ValI32)
	conv(OpI32TruncF32U, ValF32, ValI32)
	conv(OpI32TruncF64S, ValF64, ValI32)
	conv(OpI32TruncF64U, ValF64, ValI32)
	conv(OpI64ExtendI32S, ValI32, ValI64)
	conv(OpI64ExtendI32U, ValI32, ValI64)
	conv(OpI64TruncF32S, ValF32, ValI64)
	conv(OpI64TruncF32U, ValF32, ValI64)
	conv(OpI64TruncF64S, ValF64, ValI64)
	conv(OpI64TruncF64U, ValF64, ValI64)
	conv(OpF32ConvertI32S, ValI32, ValF32)
	conv(OpF32ConvertI32U, ValI32, ValF32)
	conv(OpF32ConvertI64S, ValI64, ValF32)
	conv(OpF32ConvertI64U, ValI64, ValF32)
	conv(OpF32DemoteF64, ValF64, ValF32)
	conv(OpF64ConvertI32S, ValI32, ValF64)
	conv(OpF64ConvertI32U, ValI32, ValF64)
	conv(OpF64ConvertI64S, ValI64, ValF64)
	conv(OpF64ConvertI64U, ValI64, ValF64)
	conv(OpF64PromoteF32, ValF32, ValF64)
	conv(OpI32ReinterpretF32, ValF32, ValI32)
	conv(OpI64ReinterpretF64, ValF64, ValI64)
	conv(OpF32ReinterpretI32, ValI32, ValF32)
	conv(OpF64ReinterpretI64, ValI64, ValF64)
	conv(OpI32Extend8S, ValI32, ValI32)
	conv(OpI32Extend16S, ValI32, ValI32)
	conv(OpI64Extend8S, ValI64, ValI64)
	conv(OpI64Extend16S, ValI64, ValI64)
	conv(OpI64Extend32S, ValI64, ValI64)
	return sigs
}
