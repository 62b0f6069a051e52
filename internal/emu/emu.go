// Package emu executes disassembled functions in isolation under fixed
// execution environments, collecting the dynamic features of the paper's
// Table II. It is the stand-in for PATCHECKO's device-side instrumentation
// stack (DLL injection + dlopen/dlsym to run a single exported function,
// GDBServer to trace it): given a function and an environment, it runs just
// that function — no whole-binary loading — and records instruction mix,
// stack depth statistics, per-region memory access counts, and library/
// system call counts. Abnormal executions surface as minic.TrapError, which
// the dynamic analysis engine uses to discard candidates, exactly as the
// paper removes candidates that "trigger a system exception".
package emu

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/disasm"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
)

// Stack layout. The machine stack lives well away from the data, rodata and
// heap regions shared with the source-level semantics.
const (
	StackTop  = 0x7ff0_0000
	StackSize = 1 << 20
	stackBase = StackTop - StackSize // lowest stack address
)

// DefaultStepLimit bounds executions ("infinite loop" detection).
const DefaultStepLimit = 1 << 20

// watchdogStride is how many instructions execute between context checks.
// The wall-clock watchdog and cancellation both piggyback on this check, so
// the hot loop pays one counter test per instruction and one channel poll
// per stride.
const watchdogStride = 4096

// maxCallDepth matches the interpreter's recursion budget.
const maxCallDepth = 64

// Trace aggregates the 21 dynamic features of Table II plus the raw
// counters they derive from.
type Trace struct {
	BinaryFunCalls int64 // F1

	stackDepthMin  int64
	stackDepthMax  int64
	stackDepthSum  float64
	stackDepthSum2 float64

	Instrs       int64 // F6
	CallInstrs   int64 // F8
	ArithInstrs  int64 // F9
	BranchInstrs int64 // F10
	LoadInstrs   int64 // F11
	StoreInstrs  int64 // F12

	// visits holds one visit-count slice per function entered during the
	// execution, in order of first entry. F7, F13 and F14 derive from it
	// at read time.
	visits []fnVisits

	HeapAccess   int64 // F15
	StackAccess  int64 // F16
	LibAccess    int64 // F17
	AnonAccess   int64 // F18
	OthersAccess int64 // F19

	LibCalls int64 // F20
	Syscalls int64 // F21
}

// fnVisits counts how often each instruction of fn executed, by
// instruction index.
type fnVisits struct {
	fn *disasm.Function
	n  []int64
}

func newTrace() *Trace {
	return &Trace{stackDepthMin: math.MaxInt64}
}

// counts returns fn's visit-count slice, creating it on fn's first entry.
// Only function entry looks it up; the per-step path indexes the slice.
func (t *Trace) counts(fn *disasm.Function) []int64 {
	for _, v := range t.visits {
		if v.fn == fn {
			return v.n
		}
	}
	n := make([]int64, len(fn.Instrs))
	t.visits = append(t.visits, fnVisits{fn: fn, n: n})
	return n
}

// UniqueInstrs is feature F7: the number of distinct instruction addresses
// executed.
func (t *Trace) UniqueInstrs() int64 {
	unique, _, _ := t.hot()
	return unique
}

// PCs returns the set of executed instruction addresses. The fuzzer uses it
// as its coverage signal.
func (t *Trace) PCs() map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for _, v := range t.visits {
		for i, c := range v.n {
			if c > 0 {
				out[v.fn.Addr+uint64(v.fn.Instrs[i].Offset)] = struct{}{}
			}
		}
	}
	return out
}

// StackDepthStats returns features F2..F5 (min, max, mean, stddev of the
// call-stack depth sampled at every executed instruction).
func (t *Trace) StackDepthStats() (minD, maxD int64, mean, std float64) {
	if t.Instrs == 0 {
		return 0, 0, 0, 0
	}
	mean = t.stackDepthSum / float64(t.Instrs)
	variance := t.stackDepthSum2/float64(t.Instrs) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return t.stackDepthMin, t.stackDepthMax, mean, math.Sqrt(variance)
}

// MaxBranchFreq is feature F13: the execution count of the hottest single
// branch instruction.
func (t *Trace) MaxBranchFreq() int64 {
	_, maxBranch, _ := t.hot()
	return maxBranch
}

// MaxArithFreq is feature F14: the execution count of the hottest single
// arithmetic instruction.
func (t *Trace) MaxArithFreq() int64 {
	_, _, maxArith := t.hot()
	return maxArith
}

// Op classes for F13/F14, in the precedence the per-step counters use.
const (
	classOther = iota
	classArith
	classBranch
)

func opClass(op isa.Op) int {
	switch {
	case op.IsArith() || op.IsArithFP():
		return classArith
	case op.IsBranch():
		return classBranch
	}
	return classOther
}

// hot derives F7, F13 and F14 in one pass over the visit counts: the
// number of executed instructions, and the visit count of the hottest
// branch and arithmetic instruction. The features count addresses, so the
// pass relies on every executed instruction having its own address: each
// function's offsets increase and no two entered functions' spans
// overlap. Disassembled code always qualifies; a layout that does not
// (a crafted function, overlapping symbols) takes hotByAddr.
func (t *Trace) hot() (unique, maxBranch, maxArith int64) {
	for vi, v := range t.visits {
		prev := -1
		for i, c := range v.n {
			off := v.fn.Instrs[i].Offset
			if off <= prev {
				return t.hotByAddr()
			}
			prev = off
			if c == 0 {
				continue
			}
			unique++
			switch opClass(v.fn.Instrs[i].Op) {
			case classArith:
				maxArith = max(maxArith, c)
			case classBranch:
				maxBranch = max(maxBranch, c)
			}
		}
		for _, w := range t.visits[:vi] {
			if spansOverlap(v.fn, w.fn) {
				return t.hotByAddr()
			}
		}
	}
	return unique, maxBranch, maxArith
}

// spansOverlap reports whether the instruction address spans of two
// functions with increasing offsets intersect.
func spansOverlap(a, b *disasm.Function) bool {
	if len(a.Instrs) == 0 || len(b.Instrs) == 0 {
		return false
	}
	aLo, aHi := a.Addr+uint64(a.Instrs[0].Offset), a.Addr+uint64(a.Instrs[len(a.Instrs)-1].Offset)
	bLo, bHi := b.Addr+uint64(b.Instrs[0].Offset), b.Addr+uint64(b.Instrs[len(b.Instrs)-1].Offset)
	return aLo <= bHi && bLo <= aHi
}

// hotByAddr is hot for layouts where several executed instructions share
// an address: it sorts the visited instructions by address and merges the
// counts of each address, per op class.
func (t *Trace) hotByAddr() (unique, maxBranch, maxArith int64) {
	type visit struct {
		addr  uint64
		class int
		n     int64
	}
	var vs []visit
	for _, v := range t.visits {
		for i, c := range v.n {
			if c > 0 {
				in := v.fn.Instrs[i]
				vs = append(vs, visit{v.fn.Addr + uint64(in.Offset), opClass(in.Op), c})
			}
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].addr < vs[j].addr })
	for i := 0; i < len(vs); {
		unique++
		var branch, arith int64
		j := i
		for ; j < len(vs) && vs[j].addr == vs[i].addr; j++ {
			switch vs[j].class {
			case classArith:
				arith += vs[j].n
			case classBranch:
				branch += vs[j].n
			}
		}
		maxBranch, maxArith = max(maxBranch, branch), max(maxArith, arith)
		i = j
	}
	return unique, maxBranch, maxArith
}

// Vector flattens the trace into the 21-dimensional dynamic feature vector
// in Table II order.
func (t *Trace) Vector() [21]float64 {
	minD, maxD, mean, std := t.StackDepthStats()
	unique, maxBranch, maxArith := t.hot()
	return [21]float64{
		float64(t.BinaryFunCalls),
		float64(minD),
		float64(maxD),
		mean,
		std,
		float64(t.Instrs),
		float64(unique),
		float64(t.CallInstrs),
		float64(t.ArithInstrs),
		float64(t.BranchInstrs),
		float64(t.LoadInstrs),
		float64(t.StoreInstrs),
		float64(maxBranch),
		float64(maxArith),
		float64(t.HeapAccess),
		float64(t.StackAccess),
		float64(t.LibAccess),
		float64(t.AnonAccess),
		float64(t.OthersAccess),
		float64(t.LibCalls),
		float64(t.Syscalls),
	}
}

// Result is a completed execution.
type Result struct {
	Ret   int64
	Trace *Trace
	data  pagedRegion // final data region
}

// Data returns the final contents of the data region (minic.DataSize
// bytes). It builds the slice on every call; only tests compare it.
func (r *Result) Data() []byte { return r.data.bytes() }

// The data region, the heap and the stack are lazily paged: a page is
// allocated by the first store into it and a never-written page reads as
// zero, so an execution pays only for the pages it dirties (and, for the
// data region, the pages env.Data seeds).
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Every region is a whole number of pages.
const _ uint = -(minic.DataSize%pageSize | minic.HeapSize%pageSize | StackSize%pageSize)

type page = [pageSize]byte

// pagedRegion is one zero-initialized region: a table of 4 KiB pages,
// each allocated on its first store. Offsets are region-relative and
// already bounds-checked by the caller.
type pagedRegion []*page

func newPagedRegion(size int) pagedRegion { return make(pagedRegion, size>>pageShift) }

func (r pagedRegion) load(off int64) byte {
	if p := r[off>>pageShift]; p != nil {
		return p[off&(pageSize-1)]
	}
	return 0
}

func (r pagedRegion) store(off int64, v byte) {
	p := r[off>>pageShift]
	if p == nil {
		p = new(page)
		r[off>>pageShift] = p
	}
	p[off&(pageSize-1)] = v
}

// fill copies b to the start of the region, truncated at the region's end
// as copy truncates. It allocates exactly the pages b spans.
func (r pagedRegion) fill(b []byte) {
	for i := 0; i < len(r) && len(b) > 0; i++ {
		p := new(page)
		b = b[copy(p[:], b):]
		r[i] = p
	}
}

// bytes materializes the region as one flat slice.
func (r pagedRegion) bytes() []byte {
	out := make([]byte, len(r)<<pageShift)
	for i, p := range r {
		if p != nil {
			copy(out[i<<pageShift:], p[:])
		}
	}
	return out
}

// taggedMem is the emulator's address space with per-region access
// counting. Every access inside a region counts once against that region;
// an access outside all of them (or a store to rodata) counts as "other"
// and traps.
type taggedMem struct {
	data   pagedRegion
	rodata []byte
	heap   pagedRegion
	stack  pagedRegion
	trace  *Trace
}

var _ minic.Memory = (*taggedMem)(nil)

// newTaggedMem returns a fresh address space whose data region starts out
// holding data.
func newTaggedMem(rodata, data []byte, tr *Trace) *taggedMem {
	m := &taggedMem{
		data:   newPagedRegion(minic.DataSize),
		rodata: rodata,
		heap:   newPagedRegion(minic.HeapSize),
		stack:  newPagedRegion(StackSize),
		trace:  tr,
	}
	m.data.fill(data)
	return m
}

func (m *taggedMem) LoadByte(addr int64) (byte, error) {
	switch {
	case addr >= minic.DataBase && addr < minic.DataBase+minic.DataSize:
		m.trace.AnonAccess++
		return m.data.load(addr - minic.DataBase), nil
	case addr >= minic.RodataBase && addr < minic.RodataBase+int64(len(m.rodata)):
		m.trace.LibAccess++
		return m.rodata[addr-minic.RodataBase], nil
	case addr >= minic.HeapBase && addr < minic.HeapBase+minic.HeapSize:
		m.trace.HeapAccess++
		return m.heap.load(addr - minic.HeapBase), nil
	case addr >= stackBase && addr < StackTop:
		m.trace.StackAccess++
		return m.stack.load(addr - stackBase), nil
	}
	m.trace.OthersAccess++
	return 0, &minic.TrapError{Kind: minic.TrapOOB, Addr: addr}
}

func (m *taggedMem) StoreByte(addr int64, v byte) error {
	switch {
	case addr >= minic.DataBase && addr < minic.DataBase+minic.DataSize:
		m.trace.AnonAccess++
		m.data.store(addr-minic.DataBase, v)
		return nil
	case addr >= minic.HeapBase && addr < minic.HeapBase+minic.HeapSize:
		m.trace.HeapAccess++
		m.heap.store(addr-minic.HeapBase, v)
		return nil
	case addr >= stackBase && addr < StackTop:
		m.trace.StackAccess++
		m.stack.store(addr-stackBase, v)
		return nil
	}
	// Rodata is not writable: a store there traps like a wild one.
	m.trace.OthersAccess++
	return &minic.TrapError{Kind: minic.TrapOOB, Addr: addr}
}

// frame is one activation record of the Go-side return stack (the emulator
// models the link register in Go, like hardware keeps it out of data memory).
type frame struct {
	fn     *disasm.Function
	pc     int     // resume instruction index in fn
	visits []int64 // fn's visit counts
}

// Machine executes one function invocation.
type Machine struct {
	ctx   context.Context // nil = no watchdog, no cancellation
	dis   *disasm.Disassembly
	mem   minic.Memory
	regs  [16]int64
	flagL int64
	flagR int64
	bst   *minic.BuiltinState
	trace *Trace
	limit int64

	fn     *disasm.Function
	pc     int
	visits []int64 // fn's visit counts, indexed like fn.Instrs
	frames []frame
}

// Execute runs fn under env, with the given instruction budget
// (DefaultStepLimit if limit <= 0). The environment's scalar arguments load
// into r0..r3 — the same convention for every candidate function, which is
// what lets one environment drive many candidates, as in the paper.
//
// On abnormal termination the returned Result is non-nil and carries the
// trace collected up to the fault — the partial profile the dynamic stage
// consumes — alongside the *minic.TrapError.
func Execute(dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) (*Result, error) {
	return ExecuteCtx(nil, dis, fn, env, limit)
}

// ExecuteCtx is Execute with a watchdog context. The context's deadline is
// the execution's wall-clock budget, checked every watchdogStride
// instructions alongside the step limit: an expired deadline surfaces as a
// minic.TrapBudget trap (an abnormal execution of this one function), while
// plain cancellation returns the context's error verbatim (the whole scan
// is being torn down, not this function misbehaving). A nil or
// context.Background context disables both checks at zero per-step cost.
func ExecuteCtx(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) (*Result, error) {
	return ExecuteObserved(ctx, dis, fn, env, limit, nil)
}

// ExecuteObserved is ExecuteCtx reporting into an observability sink:
// executions started, instructions executed, and traps by kind. A nil sink
// is the no-op default — the run itself is identical either way, and the
// accounting is a handful of atomic adds per execution, off the per-step
// hot loop.
//
// The execution copies env.Data into its own data region, only reads
// env.Args, and keeps no reference to env, so one env may drive any number
// of executions, concurrent ones included, without being cloned.
func ExecuteObserved(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64, o *obs.Metrics) (*Result, error) {
	tr := newTrace()
	mem := newTaggedMem(dis.Image.Rodata, env.Data, tr)
	res, err := execute(ctx, dis, fn, env, limit, o, mem, tr)
	res.data = mem.data
	return res, err
}

// execute runs fn over mem, a fresh address space already holding env.Data
// whose accesses count into tr. The caller attaches the final data region
// to the Result.
func execute(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64, o *obs.Metrics, mem minic.Memory, tr *Trace) (*Result, error) {
	m := newMachine(ctx, dis, fn, env, limit, mem, tr)
	if err := faultinject.Fire(faultinject.ExecTrap, dis.Image.LibName+":"+fn.Name); err != nil {
		observeExec(o, tr, err)
		return &Result{Trace: tr}, err
	}
	if err := m.run(); err != nil {
		observeExec(o, tr, err)
		// Partial result: the trace up to the fault is the truncated
		// profile the fault-tolerant dynamic stage ranks with.
		return &Result{Ret: m.regs[0], Trace: tr}, err
	}
	observeExec(o, tr, nil)
	return &Result{Ret: m.regs[0], Trace: tr}, nil
}

// newMachine is a machine about to run fn's first instruction under env.
func newMachine(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64, mem minic.Memory, tr *Trace) *Machine {
	if limit <= 0 {
		limit = DefaultStepLimit
	}
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // no deadline and not cancellable: skip the polling
	}
	m := &Machine{
		ctx:    ctx,
		dis:    dis,
		mem:    mem,
		bst:    minic.NewBuiltinState(),
		trace:  tr,
		limit:  limit,
		fn:     fn,
		visits: tr.counts(fn),
	}
	for i, a := range env.Args {
		if i >= 4 {
			break
		}
		m.regs[i] = a
	}
	m.regs[m.sp()] = StackTop
	return m
}

// observeExec records one execution's accounting: the execution itself, its
// instruction count, and — when it trapped — the trap kind. Cancellation is
// not a trap and counts only as an execution.
func observeExec(o *obs.Metrics, tr *Trace, err error) {
	if o == nil {
		return
	}
	o.Add(obs.CtrExecutions, 1)
	if tr != nil {
		o.Add(obs.CtrExecSteps, tr.Instrs)
	}
	if err == nil {
		return
	}
	if t, ok := minic.IsTrap(err); ok {
		o.Add(obs.CtrExecTrapped, 1)
		if c, ok := trapCounter(t.Kind); ok {
			o.Add(c, 1)
		}
	}
}

// trapCounter maps a trap kind to its per-kind counter.
func trapCounter(k minic.TrapKind) (obs.Counter, bool) {
	switch k {
	case minic.TrapOOB:
		return obs.CtrTrapOOB, true
	case minic.TrapDivZero:
		return obs.CtrTrapDivZero, true
	case minic.TrapBadCall:
		return obs.CtrTrapBadCall, true
	case minic.TrapStepLimit:
		return obs.CtrTrapStepLimit, true
	case minic.TrapStack:
		return obs.CtrTrapStack, true
	case minic.TrapDecode:
		return obs.CtrTrapDecode, true
	case minic.TrapBudget:
		return obs.CtrTrapBudget, true
	default:
		return 0, false
	}
}

func (m *Machine) sp() int { return m.dis.Arch.NumRegs - 1 }
func (m *Machine) fp() int { return m.dis.Arch.NumRegs - 2 }

func (m *Machine) run() error {
	for {
		if m.pc < 0 || m.pc >= len(m.fn.Instrs) {
			// The message deliberately omits the function's address: trap
			// text must be relocation-invariant so identical function copies
			// at different link addresses fail identically (the dedup
			// engine's sharing contract).
			return &minic.TrapError{Kind: minic.TrapDecode,
				Msg: fmt.Sprintf("pc %d outside function", m.pc)}
		}
		in := m.fn.Instrs[m.pc]

		m.trace.Instrs++
		if m.trace.Instrs > m.limit {
			return &minic.TrapError{Kind: minic.TrapStepLimit}
		}
		if m.ctx != nil && m.trace.Instrs%watchdogStride == 0 {
			select {
			case <-m.ctx.Done():
				if m.ctx.Err() == context.DeadlineExceeded {
					return &minic.TrapError{Kind: minic.TrapBudget,
						Msg: fmt.Sprintf("after %d instructions", m.trace.Instrs)}
				}
				return m.ctx.Err()
			default:
			}
		}
		m.visits[m.pc]++
		depth := int64(len(m.frames)) + 1
		if depth < m.trace.stackDepthMin {
			m.trace.stackDepthMin = depth
		}
		if depth > m.trace.stackDepthMax {
			m.trace.stackDepthMax = depth
		}
		m.trace.stackDepthSum += float64(depth)
		m.trace.stackDepthSum2 += float64(depth) * float64(depth)
		switch {
		case in.Op.IsArith() || in.Op.IsArithFP():
			m.trace.ArithInstrs++
		case in.Op.IsBranch():
			m.trace.BranchInstrs++
		case in.Op.IsCall():
			m.trace.CallInstrs++
		case in.Op.IsLoad():
			m.trace.LoadInstrs++
		case in.Op.IsStore():
			m.trace.StoreInstrs++
		}

		done, err := m.step(in)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// step executes one instruction; it returns true when the outermost
// function returned.
func (m *Machine) step(in disasm.DInstr) (bool, error) {
	next := m.pc + 1
	switch op := in.Op; op {
	case isa.Nop:
	case isa.Ldi:
		m.regs[in.Rd] = in.Imm
	case isa.Mov:
		m.regs[in.Rd] = m.regs[in.Rs1]

	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Mod, isa.AndOp, isa.OrOp,
		isa.XorOp, isa.Shl, isa.Shr, isa.Fadd, isa.Fsub, isa.Fmul, isa.Fdiv,
		isa.Seq, isa.Sne, isa.Slt, isa.Sle, isa.Sgt, isa.Sge:
		v, err := minic.EvalBinOp(binOpOf(op), m.regs[in.Rs1], m.regs[in.Rs2])
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v

	case isa.Add2, isa.Sub2, isa.Mul2, isa.Div2, isa.Mod2, isa.And2, isa.Or2,
		isa.Xor2, isa.Shl2, isa.Shr2, isa.Fadd2, isa.Fsub2, isa.Fmul2, isa.Fdiv2:
		v, err := minic.EvalBinOp(binOpOf(op), m.regs[in.Rd], m.regs[in.Rs1])
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v

	case isa.AddI, isa.SubI, isa.MulI, isa.AndI, isa.OrI, isa.XorI, isa.ShlI, isa.ShrI:
		v, err := minic.EvalBinOp(binOpOf(op), m.regs[in.Rd], in.Imm)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v

	case isa.NegOp, isa.NotOp, isa.Inv:
		m.regs[in.Rd] = minic.EvalUnOp(unOpOf(op), m.regs[in.Rs1])
	case isa.Neg2, isa.Not2, isa.Inv2:
		m.regs[in.Rd] = minic.EvalUnOp(unOpOf(op), m.regs[in.Rd])

	case isa.Cmp:
		m.flagL, m.flagR = m.regs[in.Rs1], m.regs[in.Rs2]
	case isa.CmpI:
		m.flagL, m.flagR = m.regs[in.Rs1], in.Imm
	case isa.Sete:
		m.regs[in.Rd] = b2i(m.flagL == m.flagR)
	case isa.Setne:
		m.regs[in.Rd] = b2i(m.flagL != m.flagR)
	case isa.Setl:
		m.regs[in.Rd] = b2i(m.flagL < m.flagR)
	case isa.Setle:
		m.regs[in.Rd] = b2i(m.flagL <= m.flagR)
	case isa.Setg:
		m.regs[in.Rd] = b2i(m.flagL > m.flagR)
	case isa.Setge:
		m.regs[in.Rd] = b2i(m.flagL >= m.flagR)

	case isa.Ldb:
		b, err := m.mem.LoadByte(m.regs[in.Rs1] + in.Imm)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = int64(b)
	case isa.Stb:
		if err := m.mem.StoreByte(m.regs[in.Rs1]+in.Imm, byte(m.regs[in.Rs2])); err != nil {
			return false, err
		}
	case isa.Ldw:
		v, err := minic.LoadWord(m.mem, m.regs[in.Rs1]+in.Imm)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v
	case isa.Stw:
		if err := minic.StoreWord(m.mem, m.regs[in.Rs1]+in.Imm, m.regs[in.Rs2]); err != nil {
			return false, err
		}

	case isa.Jmp:
		return false, m.jump(int(in.Imm))
	case isa.Jz:
		if m.regs[in.Rs1] == 0 {
			return false, m.jump(int(in.Imm))
		}
		m.pc = next
		return false, nil
	case isa.Jnz:
		if m.regs[in.Rs1] != 0 {
			return false, m.jump(int(in.Imm))
		}
		m.pc = next
		return false, nil
	case isa.Je, isa.Jne, isa.Jl, isa.Jle, isa.Jg, isa.Jge:
		if m.flagTaken(op) {
			return false, m.jump(int(in.Imm))
		}
		m.pc = next
		return false, nil

	case isa.Call:
		callee, ok := m.dis.FuncAt(uint64(in.Imm))
		if !ok {
			return false, &minic.TrapError{Kind: minic.TrapBadCall,
				Msg: fmt.Sprintf("call to unmapped address %#x", in.Imm)}
		}
		if len(m.frames) >= maxCallDepth {
			return false, &minic.TrapError{Kind: minic.TrapStack, Msg: "call stack overflow"}
		}
		m.trace.BinaryFunCalls++
		m.frames = append(m.frames, frame{fn: m.fn, pc: next, visits: m.visits})
		m.fn, m.pc, m.visits = callee, 0, m.trace.counts(callee)
		return false, nil

	case isa.CallI:
		b, ok := minic.BuiltinByIndex(int(in.Imm))
		if !ok {
			return false, &minic.TrapError{Kind: minic.TrapBadCall,
				Msg: fmt.Sprintf("bad import index %d", in.Imm)}
		}
		args := make([]int64, b.NArgs)
		for i := range args {
			args[i] = m.regs[i]
		}
		v, err := b.Fn(m.mem, m.bst, args)
		if err != nil {
			return false, err
		}
		if b.Kind == minic.KindSys {
			m.trace.Syscalls++
		} else {
			m.trace.LibCalls++
		}
		m.regs[0] = v

	case isa.Ret:
		if len(m.frames) == 0 {
			return true, nil
		}
		top := m.frames[len(m.frames)-1]
		m.frames = m.frames[:len(m.frames)-1]
		m.fn, m.pc, m.visits = top.fn, top.pc, top.visits
		return false, nil

	case isa.Push:
		sp := m.regs[m.sp()] - 8
		if sp < stackBase {
			return false, &minic.TrapError{Kind: minic.TrapStack, Msg: "stack overflow"}
		}
		m.regs[m.sp()] = sp
		if err := minic.StoreWord(m.mem, sp, m.regs[in.Rs1]); err != nil {
			return false, err
		}
	case isa.Pop:
		sp := m.regs[m.sp()]
		if sp >= StackTop {
			return false, &minic.TrapError{Kind: minic.TrapStack, Msg: "stack underflow"}
		}
		v, err := minic.LoadWord(m.mem, sp)
		if err != nil {
			return false, err
		}
		m.regs[in.Rd] = v
		m.regs[m.sp()] = sp + 8
	case isa.AddSp:
		m.regs[m.sp()] += in.Imm

	default:
		return false, &minic.TrapError{Kind: minic.TrapDecode,
			Msg: fmt.Sprintf("unimplemented op %v", in.Op)}
	}
	m.pc = next
	return false, nil
}

// jump resolves an intra-function byte offset.
func (m *Machine) jump(off int) error {
	idx, ok := m.fn.IndexAtOffset(off)
	if !ok {
		return &minic.TrapError{Kind: minic.TrapDecode,
			Msg: fmt.Sprintf("branch to mid-instruction offset %d", off)}
	}
	m.pc = idx
	return nil
}

func (m *Machine) flagTaken(op isa.Op) bool {
	switch op {
	case isa.Je:
		return m.flagL == m.flagR
	case isa.Jne:
		return m.flagL != m.flagR
	case isa.Jl:
		return m.flagL < m.flagR
	case isa.Jle:
		return m.flagL <= m.flagR
	case isa.Jg:
		return m.flagL > m.flagR
	default:
		return m.flagL >= m.flagR
	}
}

// binOpOf maps ISA ALU ops onto the shared source-level semantics, keeping
// interpreter and emulator arithmetic identical by construction.
func binOpOf(op isa.Op) minic.BinOp {
	switch op {
	case isa.Add, isa.Add2, isa.AddI:
		return minic.OpAdd
	case isa.Sub, isa.Sub2, isa.SubI:
		return minic.OpSub
	case isa.Mul, isa.Mul2, isa.MulI:
		return minic.OpMul
	case isa.Div, isa.Div2:
		return minic.OpDiv
	case isa.Mod, isa.Mod2:
		return minic.OpMod
	case isa.AndOp, isa.And2, isa.AndI:
		return minic.OpAnd
	case isa.OrOp, isa.Or2, isa.OrI:
		return minic.OpOr
	case isa.XorOp, isa.Xor2, isa.XorI:
		return minic.OpXor
	case isa.Shl, isa.Shl2, isa.ShlI:
		return minic.OpShl
	case isa.Shr, isa.Shr2, isa.ShrI:
		return minic.OpShr
	case isa.Fadd, isa.Fadd2:
		return minic.OpFAdd
	case isa.Fsub, isa.Fsub2:
		return minic.OpFSub
	case isa.Fmul, isa.Fmul2:
		return minic.OpFMul
	case isa.Fdiv, isa.Fdiv2:
		return minic.OpFDiv
	case isa.Seq:
		return minic.OpEq
	case isa.Sne:
		return minic.OpNe
	case isa.Slt:
		return minic.OpLt
	case isa.Sle:
		return minic.OpLe
	case isa.Sgt:
		return minic.OpGt
	default: // isa.Sge
		return minic.OpGe
	}
}

func unOpOf(op isa.Op) minic.UnOp {
	switch op {
	case isa.NegOp, isa.Neg2:
		return minic.OpNeg
	case isa.NotOp, isa.Not2:
		return minic.OpNot
	default:
		return minic.OpInv
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ExecuteByName looks the function up by symbol and executes it — a
// convenience for tests and ground-truth runs on unstripped images.
func ExecuteByName(dis *disasm.Disassembly, name string, env *minic.Env, limit int64) (*Result, error) {
	fn, ok := dis.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("emu: no function %q in %s", name, dis.Image.LibName)
	}
	return ExecuteCtx(nil, dis, fn, env, limit)
}
