package emu

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// flatMem is the emulator's original address space, kept as the test
// oracle for the paged one: the data region, the heap and the stack are
// flat, eagerly zeroed slices. Its region lookup and counting are the reference
// semantics taggedMem must reproduce access for access.
type flatMem struct {
	data   []byte
	rodata []byte
	heap   []byte
	stack  []byte
	trace  *Trace
}

var _ minic.Memory = (*flatMem)(nil)

// region tags memory areas for the Table II access counters.
type region int

const (
	regionStack region = iota + 1
	regionHeap
	regionLib  // read-only library data (rodata)
	regionAnon // the anonymously-mapped input buffer (data region)
	regionOther
)

func newFlatMem(rodata []byte, tr *Trace) *flatMem {
	return &flatMem{
		data:   make([]byte, minic.DataSize),
		rodata: rodata,
		heap:   make([]byte, minic.HeapSize),
		stack:  make([]byte, StackSize),
		trace:  tr,
	}
}

func (m *flatMem) region(addr int64) (region, []byte, int64) {
	switch {
	case addr >= minic.DataBase && addr < minic.DataBase+minic.DataSize:
		return regionAnon, m.data, addr - minic.DataBase
	case addr >= minic.RodataBase && addr < minic.RodataBase+int64(len(m.rodata)):
		return regionLib, m.rodata, addr - minic.RodataBase
	case addr >= minic.HeapBase && addr < minic.HeapBase+minic.HeapSize:
		return regionHeap, m.heap, addr - minic.HeapBase
	case addr >= StackTop-StackSize && addr < StackTop:
		return regionStack, m.stack, addr - (StackTop - StackSize)
	}
	return regionOther, nil, 0
}

func (m *flatMem) count(r region) {
	switch r {
	case regionStack:
		m.trace.StackAccess++
	case regionHeap:
		m.trace.HeapAccess++
	case regionLib:
		m.trace.LibAccess++
	case regionAnon:
		m.trace.AnonAccess++
	default:
		m.trace.OthersAccess++
	}
}

func (m *flatMem) LoadByte(addr int64) (byte, error) {
	r, buf, off := m.region(addr)
	if buf == nil {
		m.trace.OthersAccess++
		return 0, &minic.TrapError{Kind: minic.TrapOOB, Addr: addr}
	}
	m.count(r)
	return buf[off], nil
}

func (m *flatMem) StoreByte(addr int64, v byte) error {
	r, buf, off := m.region(addr)
	if buf == nil || r == regionLib { // rodata is not writable
		m.trace.OthersAccess++
		return &minic.TrapError{Kind: minic.TrapOOB, Addr: addr}
	}
	m.count(r)
	buf[off] = v
	return nil
}

// executeFlat is ExecuteObserved over the flat oracle memory.
func executeFlat(dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) (*Result, error) {
	tr := newTrace()
	mem := newFlatMem(dis.Image.Rodata, tr)
	copy(mem.data, env.Data)
	res, err := execute(nil, dis, fn, env, limit, nil, mem, tr)
	res.data = pagedView(mem.data)
	return res, err
}

// pagedView is a paged region whose pages alias b, so the flat oracle's
// final data region reads back through Result.Data.
func pagedView(b []byte) pagedRegion {
	r := newPagedRegion(len(b))
	for i := range r {
		r[i] = (*page)(b[i<<pageShift:])
	}
	return r
}

// sameOutcome reports how two executions of the same function differ, or
// "" when return value, Table II vector, final data region and trap (kind
// and address) all agree.
func sameOutcome(got *Result, gotErr error, want *Result, wantErr error) string {
	if d := sameErr(gotErr, wantErr); d != "" {
		return d
	}
	switch {
	case got.Ret != want.Ret:
		return fmt.Sprintf("ret %d, want %d", got.Ret, want.Ret)
	case got.Trace.Vector() != want.Trace.Vector():
		return fmt.Sprintf("trace %v, want %v", got.Trace.Vector(), want.Trace.Vector())
	case string(got.Data()) != string(want.Data()):
		return "final data region differs"
	}
	return ""
}

// sameErr compares two errors as the dynamic stage sees them: traps by
// kind, address and message, anything else by text.
func sameErr(got, want error) string {
	gt, gok := minic.IsTrap(got)
	wt, wok := minic.IsTrap(want)
	switch {
	case gok != wok:
		return fmt.Sprintf("error %v, want %v", got, want)
	case gok && (gt.Kind != wt.Kind || gt.Addr != wt.Addr || gt.Msg != wt.Msg):
		return fmt.Sprintf("trap %v at %#x, want %v at %#x", gt, gt.Addr, wt, wt.Addr)
	case !gok && fmt.Sprint(got) != fmt.Sprint(want):
		return fmt.Sprintf("error %v, want %v", got, want)
	}
	return ""
}

// mapTrace is the emulator's original F7/F13/F14 accounting, kept as the
// test oracle for the visit counters: three maps keyed by instruction
// address, updated on every step.
type mapTrace struct {
	uniquePCs  map[uint64]struct{}
	branchFreq map[uint64]int64
	arithFreq  map[uint64]int64
}

// run is the original Machine.run loop: it keeps the map accounting
// instead of the visit counters and drives the same Machine.step.
func (o *mapTrace) run(m *Machine) error {
	for {
		if m.pc < 0 || m.pc >= len(m.fn.Instrs) {
			return &minic.TrapError{Kind: minic.TrapDecode,
				Msg: fmt.Sprintf("pc %d outside function", m.pc)}
		}
		in := m.fn.Instrs[m.pc]
		pcAddr := m.fn.Addr + uint64(in.Offset)

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
		o.uniquePCs[pcAddr] = struct{}{}
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
			o.arithFreq[pcAddr]++
		case in.Op.IsBranch():
			m.trace.BranchInstrs++
			o.branchFreq[pcAddr]++
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

func maxVal(m map[uint64]int64) int64 {
	var best int64
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// mapOutcome is one execution under the map accounting.
type mapOutcome struct {
	ret int64
	vec [21]float64
	pcs map[uint64]struct{}
	err error
}

// executeMapOracle is ExecuteCtx with the original map accounting. Its
// Table II vector takes F7, F13 and F14 from the maps, every other
// feature from the same Trace fields the emulator fills.
func executeMapOracle(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) mapOutcome {
	tr := newTrace()
	m := newMachine(ctx, dis, fn, env, limit, newTaggedMem(dis.Image.Rodata, env.Data, tr), tr)
	o := &mapTrace{
		uniquePCs:  make(map[uint64]struct{}),
		branchFreq: make(map[uint64]int64),
		arithFreq:  make(map[uint64]int64),
	}
	err := o.run(m)
	vec := tr.Vector()
	vec[6] = float64(len(o.uniquePCs))
	vec[12] = float64(maxVal(o.branchFreq))
	vec[13] = float64(maxVal(o.arithFreq))
	return mapOutcome{ret: m.regs[0], vec: vec, pcs: o.uniquePCs, err: err}
}

// sameAsMapOracle reports how an execution differs from the map oracle's
// run of the same function, or "" when trap, return value, Table II
// vector and executed-address set all agree.
func sameAsMapOracle(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, limit int64) string {
	got, gerr := ExecuteCtx(ctx, dis, fn, env, limit)
	want := executeMapOracle(ctx, dis, fn, env, limit)
	if d := sameErr(gerr, want.err); d != "" {
		return d
	}
	if gerr == nil && got.Ret != want.ret {
		return fmt.Sprintf("ret %d, want %d", got.Ret, want.ret)
	}
	if v := got.Trace.Vector(); v != want.vec {
		return fmt.Sprintf("trace %v, want %v", v, want.vec)
	}
	if pcs := got.Trace.PCs(); !maps.Equal(pcs, want.pcs) {
		return fmt.Sprintf("%d executed addresses, want %d", len(pcs), len(want.pcs))
	}
	return ""
}

// diffCorpus is a compiled corpus library on every architecture at two
// optimization levels: a generated library (30% of its functions lack
// defensive masking, so wide inputs make them trap) plus every CVE
// function, vulnerable and patched.
func diffCorpus(t *testing.T) []*disasm.Disassembly {
	t.Helper()
	gen := minic.GenLibrary(minic.GenConfig{Seed: 12, Name: "libdiff", NumFuncs: 10})
	vuln := &minic.Module{Name: "libcve_vuln"}
	patched := &minic.Module{Name: "libcve_patched"}
	for _, c := range minic.CVEs() {
		vuln.Funcs = append(vuln.Funcs, c.Vulnerable)
		patched.Funcs = append(patched.Funcs, c.Patched)
	}
	var out []*disasm.Disassembly
	for _, mod := range []*minic.Module{gen, vuln, patched} {
		for _, arch := range isa.All() {
			for _, lvl := range []compiler.Level{compiler.O0, compiler.O2} {
				out = append(out, disassembled(t, mod, arch, lvl))
			}
		}
	}
	return out
}

// diffSteps bounds every differential execution; runaway loops hit it and
// end in the same step-limit trap on both memories.
const diffSteps = 1 << 15

// diffEnvs follows the corpus-wide signature convention (p, n, a, b with p
// in the data region). The wide lengths and the wild pointer drive fragile
// functions into out-of-bounds traps.
func diffEnvs() []*minic.Env {
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(i*37 + 11)
	}
	return []*minic.Env{
		{Args: []int64{minic.DataBase, 64, 3, 2}, Data: ramp[:64]},
		{Args: []int64{minic.DataBase, 255, 200, 7}, Data: ramp},
		{Args: []int64{minic.DataBase + 16, 4096, -5, 99}, Data: []byte("ID3\x04\x00\xff\xff\xff\xff chunk")},
		{Args: []int64{minic.DataBase, 1 << 20, 1 << 16, -1}, Data: ramp[:32]},
		{Args: []int64{minic.HeapBase - 8, 8, 1, 1}},
	}
}

// TestPagedMatchesFlatOracle runs every corpus function under every
// environment on both address spaces: return value, Table II vector,
// final data region and trap must agree exactly.
func TestPagedMatchesFlatOracle(t *testing.T) {
	var runs, trapped int
	for _, dis := range diffCorpus(t) {
		for _, fn := range dis.Funcs {
			for ei, env := range diffEnvs() {
				got, gerr := Execute(dis, fn, env, diffSteps)
				want, werr := executeFlat(dis, fn, env, diffSteps)
				if d := sameOutcome(got, gerr, want, werr); d != "" {
					t.Errorf("%s/%s env %d: %s", dis.Image.Arch, fn.Name, ei, d)
				}
				runs++
				if werr != nil {
					trapped++
				}
			}
		}
	}
	// The comparison only means something if both outcomes occur.
	if trapped == 0 || trapped == runs {
		t.Fatalf("%d of %d runs trapped: the corpus no longer exercises both outcomes", trapped, runs)
	}
}

// TestVisitCountersMatchMapOracle runs the flat-oracle corpus under the
// original map accounting as well: the Table II vector (F7, F13 and F14
// included) and the executed-address set must agree exactly.
func TestVisitCountersMatchMapOracle(t *testing.T) {
	var runs int
	for _, dis := range diffCorpus(t) {
		for _, fn := range dis.Funcs {
			for ei, env := range diffEnvs() {
				if d := sameAsMapOracle(nil, dis, fn, env, diffSteps); d != "" {
					t.Errorf("%s/%s env %d: %s", dis.Image.Arch, fn.Name, ei, d)
				}
				runs++
			}
		}
	}
	t.Logf("%d runs", runs)
}

// TestVisitCountersCallsAndTruncation covers what the corpus leaves to
// chance: a recursive function (one visit slice re-entered at every
// depth), a function calling several callees (one slice each, restored on
// return), and runs cut short by the step limit and by the wall-clock
// watchdog, whose partial profiles the dynamic stage still ranks.
func TestVisitCountersCallsAndTruncation(t *testing.T) {
	loop := func(name string, body ...minic.Stmt) *minic.Func {
		return minic.NewFunc(name, []string{"n"},
			minic.Set("s", minic.I(0)),
			minic.Set("i", minic.I(0)),
			minic.Loop(minic.Lt(minic.V("i"), minic.V("n")),
				append(body, minic.Set("i", minic.Add(minic.V("i"), minic.I(1))))...),
			minic.Ret(minic.V("s")))
	}
	mod := &minic.Module{Name: "calls", Funcs: []*minic.Func{
		minic.NewFunc("fib", []string{"n"},
			minic.When(minic.Lt(minic.V("n"), minic.I(2)), minic.Ret(minic.V("n"))),
			minic.Ret(minic.Add(
				minic.Call("fib", minic.Sub(minic.V("n"), minic.I(1))),
				minic.Call("fib", minic.Sub(minic.V("n"), minic.I(2)))))),
		loop("sum", minic.Set("s", minic.Add(minic.V("s"), minic.V("i")))),
		loop("mix", minic.Set("s", minic.Xor(minic.Mul(minic.V("s"), minic.I(31)), minic.V("i")))),
		minic.NewFunc("multi", []string{"n"},
			minic.Set("a", minic.Call("sum", minic.V("n"))),
			minic.Set("b", minic.Call("mix", minic.Add(minic.V("n"), minic.I(3)))),
			minic.Set("c", minic.Call("fib", minic.I(6))),
			minic.Set("d", minic.Call("sum", minic.I(2))),
			minic.Ret(minic.Add(minic.Add(minic.V("a"), minic.V("b")), minic.Add(minic.V("c"), minic.V("d"))))),
		minic.NewFunc("spin", nil,
			minic.Loop(minic.I(1), minic.Set("x", minic.Add(minic.V("x"), minic.I(1)))),
			minic.Ret(minic.V("x"))),
		// Counts a float down to 0.0 under a zero-test loop condition: on
		// the xarm targets, which branch on a register without a compare,
		// the hottest arithmetic instruction is the floating-point one.
		minic.NewFunc("fcount", []string{"x"},
			minic.Loop(minic.V("x"),
				minic.Set("x", minic.B(minic.OpFSub, minic.V("x"), minic.I(int64(math.Float64bits(1)))))),
			minic.Ret(minic.V("x"))),
	}}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cases := []struct {
		name  string
		fn    string
		arg   int64
		limit int64
		ctx   context.Context
		trap  minic.TrapKind // 0 = runs to completion
	}{
		{name: "recursive", fn: "fib", arg: 9, limit: 1 << 20},
		{name: "multi-callee", fn: "multi", arg: 12, limit: 1 << 20},
		{name: "step limit", fn: "multi", arg: 1000, limit: 700, trap: minic.TrapStepLimit},
		{name: "watchdog", fn: "spin", limit: 1 << 20, ctx: expired, trap: minic.TrapBudget},
		{name: "float arithmetic", fn: "fcount", arg: int64(math.Float64bits(40)), limit: 1 << 20},
	}
	for _, arch := range isa.All() {
		for _, lvl := range []compiler.Level{compiler.O0, compiler.O2} {
			dis := disassembled(t, mod, arch, lvl)
			for _, c := range cases {
				fn, _ := dis.Lookup(c.fn)
				env := &minic.Env{Args: []int64{c.arg}}
				res, err := ExecuteCtx(c.ctx, dis, fn, env, c.limit)
				if tr, ok := minic.IsTrap(err); c.trap != 0 && (!ok || tr.Kind != c.trap) || c.trap == 0 && err != nil {
					t.Errorf("%s/%s %s: got %v, want trap kind %v", arch.Name, lvl, c.name, err, c.trap)
				}
				if c.fn == "fcount" && res.Trace.MaxArithFreq() < 40 {
					t.Errorf("%s/%s %s: hottest arithmetic instruction ran %d times, want at least the float subtraction's 40",
						arch.Name, lvl, c.name, res.Trace.MaxArithFreq())
				}
				if d := sameAsMapOracle(c.ctx, dis, fn, env, c.limit); d != "" {
					t.Errorf("%s/%s %s: %s", arch.Name, lvl, c.name, d)
				}
			}
		}
	}
}

// TestVisitCountersSharedAddresses covers layouts where one address is
// reached through several instruction slots: a crafted function whose
// instructions all sit at offset 0, and a symbol table naming one body
// twice, so a recursive call enters the alias. F7, F13 and F14 count
// addresses, so both must merge the slots exactly as the map oracle does.
func TestVisitCountersSharedAddresses(t *testing.T) {
	crafted, fn := handBuilt(
		di(isa.Instr{Op: isa.AddI, Rd: 0, Imm: 1}),
		di(isa.Instr{Op: isa.Cmp, Rs1: 0, Rs2: 1}),
		di(isa.Instr{Op: isa.AddI, Rd: 0, Imm: 2}),
		di(isa.Instr{Op: isa.MulI, Rd: 0, Imm: 3}),
		di(isa.Instr{Op: isa.Ret}),
	)
	if d := sameAsMapOracle(nil, crafted, fn, &minic.Env{Args: []int64{1, 2}}, 0); d != "" {
		t.Errorf("crafted: %s", d)
	}

	mod := &minic.Module{Name: "alias", Funcs: []*minic.Func{
		minic.NewFunc("fib", []string{"n"},
			minic.When(minic.Lt(minic.V("n"), minic.I(2)), minic.Ret(minic.V("n"))),
			minic.Ret(minic.Add(
				minic.Call("fib", minic.Sub(minic.V("n"), minic.I(1))),
				minic.Call("fib", minic.Sub(minic.V("n"), minic.I(2)))))),
	}}
	for _, arch := range isa.All() {
		im, err := compiler.Compile(mod, arch, compiler.O1)
		if err != nil {
			t.Fatal(err)
		}
		sym := im.Symbols[0]
		sym.Name = "fib_alias"
		im.Symbols = append(im.Symbols, sym)
		dis, err := disasm.Disassemble(im)
		if err != nil {
			t.Fatal(err)
		}
		fib, _ := dis.Lookup("fib")
		if callee, _ := dis.FuncAt(fib.Addr); callee == fib {
			t.Fatalf("%s: the alias does not shadow fib", arch.Name)
		}
		res, err := Execute(dis, fib, &minic.Env{Args: []int64{7}}, 0)
		if err != nil || res.Ret != 13 {
			t.Fatalf("%s: fib(7) = %v, %v", arch.Name, res.Ret, err)
		}
		if d := sameAsMapOracle(nil, dis, fib, &minic.Env{Args: []int64{7}}, 0); d != "" {
			t.Errorf("%s: %s", arch.Name, d)
		}
	}
}

// TestExecutionCarriesNoResidue runs B after an A that wrote heap and
// stack pages, or data pages: B's outcome, final data region included,
// must equal B run alone. Executions share no memory today; this pins
// that down for any future reuse of machines or pages.
func TestExecutionCarriesNoResidue(t *testing.T) {
	envs := diffEnvs()
	var heapPairs, dataPairs int
	for _, dis := range diffCorpus(t) {
		for ai, a := range dis.Funcs {
			b := dis.Funcs[(ai+1)%len(dis.Funcs)]
			// One A run per kind of write is enough for each pair.
			var heapSeen, dataSeen bool
			for ei, env := range envs {
				benv := envs[(ei+1)%len(envs)]
				alone, aerr := Execute(dis, b, benv, diffSteps)
				ra, _ := Execute(dis, a, env, diffSteps)
				wroteHeap := !heapSeen && ra.Trace.HeapAccess > 0 && ra.Trace.StackAccess > 0 && ra.Trace.StoreInstrs > 0
				wroteData := !dataSeen && string(ra.Data()) != string(seeded(env.Data))
				if !wroteHeap && !wroteData {
					continue
				}
				got, gerr := Execute(dis, b, benv, diffSteps)
				if d := sameOutcome(got, gerr, alone, aerr); d != "" {
					t.Errorf("%s: %s after %s: %s", dis.Image.Arch, b.Name, a.Name, d)
				}
				if wroteHeap {
					heapPairs, heapSeen = heapPairs+1, true
				}
				if wroteData {
					dataPairs, dataSeen = dataPairs+1, true
				}
				if heapSeen && dataSeen {
					break
				}
			}
		}
	}
	if heapPairs == 0 || dataPairs == 0 {
		t.Fatalf("%d As wrote heap and stack, %d wrote data: want both", heapPairs, dataPairs)
	}
	t.Logf("A-then-B pairs: %d after heap and stack writes, %d after data writes", heapPairs, dataPairs)
}

// seeded is the data region an execution starts from: env.Data copied
// into a zeroed region and truncated at its end.
func seeded(data []byte) []byte {
	out := make([]byte, minic.DataSize)
	copy(out, data)
	return out
}

// memOp is one access the emulator can make: a byte or little-endian word
// load or store, words going through minic.LoadWord/StoreWord exactly as
// the Ldw/Stw/Push/Pop instructions do.
type memOp struct {
	store, word bool
	addr, val   int64
}

func (op memOp) String() string {
	kind := "ld"
	if op.store {
		kind = "st"
	}
	if op.word {
		kind += "w"
	} else {
		kind += "b"
	}
	return fmt.Sprintf("%s %#x", kind, op.addr)
}

func (op memOp) apply(m minic.Memory) (int64, error) {
	switch {
	case op.store && op.word:
		return 0, minic.StoreWord(m, op.addr, op.val)
	case op.store:
		return 0, m.StoreByte(op.addr, byte(op.val))
	case op.word:
		return minic.LoadWord(m, op.addr)
	default:
		b, err := m.LoadByte(op.addr)
		return int64(b), err
	}
}

// testRodata stands in for a module's interned string table.
var testRodata = []byte("rodata: interned strings\x00second\x00")

// regionPair is the paged memory and the flat oracle side by side, each
// counting into its own trace.
type regionPair struct {
	paged *taggedMem
	flat  *flatMem
}

// newRegionPair starts both memories with data in the data region, as an
// execution starts with env.Data.
func newRegionPair(data []byte) regionPair {
	p := regionPair{
		paged: newTaggedMem(testRodata, data, newTrace()),
		flat:  newFlatMem(testRodata, newTrace()),
	}
	copy(p.flat.data, data)
	return p
}

// answer is what one memory returned for an op.
type answer struct {
	val int64
	err error
}

// step applies op to both memories. It returns the paged memory's answer
// and any difference from the oracle in the value read, the error, or the
// access counters.
func (p regionPair) step(op memOp) (answer, string) {
	gv, gerr := op.apply(p.paged)
	wv, werr := op.apply(p.flat)
	got := answer{gv, gerr}
	if d := sameErr(gerr, werr); d != "" {
		return got, d
	}
	if gv != wv {
		return got, fmt.Sprintf("read %#x, want %#x", gv, wv)
	}
	if g, w := p.paged.trace.Vector(), p.flat.trace.Vector(); g != w {
		return got, fmt.Sprintf("counters %v, want %v", g, w)
	}
	return got, ""
}

// sameData reports where the two data regions first differ, or "".
func (p regionPair) sameData() string {
	g, w := p.paged.data.bytes(), p.flat.data
	for i := range w {
		if g[i] != w[i] {
			return fmt.Sprintf("data byte %#x is %#x, want %#x", minic.DataBase+i, g[i], w[i])
		}
	}
	return ""
}

// TestRegionBoundaries walks the edges of the paged regions: first and
// last byte of data, heap and stack, words that cross a region's end (the
// in-bounds bytes land, then the access traps), never-written pages, the
// data/rodata neighbours, and data regions seeded from an env.Data that
// is longer than the region or holds zero bytes. Each case runs on a
// fresh pair, and the expected trap is checked explicitly, not just
// matched to the oracle; so is the final data region.
// Pushing down to the stack limit is TestTrapStackPushOverflow.
func TestRegionBoundaries(t *testing.T) {
	heapEnd := int64(minic.HeapBase + minic.HeapSize)
	dataEnd := int64(minic.DataBase + minic.DataSize)
	const v = 0x0102030405060708
	long := make([]byte, minic.DataSize+100)
	for i := range long {
		long[i] = byte(i%251 + 1)
	}
	zeros := append(make([]byte, pageSize+3), 0x44, 0, 0x55) // a whole zero page, then a zero byte between two others
	rodataWord := int64(binary.LittleEndian.Uint64(testRodata))
	cases := []struct {
		name    string
		data    []byte // initial data region, as env.Data
		ops     []memOp
		trapAt  int64 // address of the expected OOB trap on the last op; 0 = none
		readVal int64 // expected value of the last op when it is a clean load
	}{
		{name: "heap first byte", ops: []memOp{{store: true, addr: minic.HeapBase, val: 0xab}, {addr: minic.HeapBase}}, readVal: 0xab},
		{name: "heap last byte", ops: []memOp{{store: true, addr: heapEnd - 1, val: 0xcd}, {addr: heapEnd - 1}}, readVal: 0xcd},
		{name: "heap last word", ops: []memOp{{store: true, word: true, addr: heapEnd - 8, val: v}, {word: true, addr: heapEnd - 8}}, readVal: v},
		{name: "heap word across page", ops: []memOp{{store: true, word: true, addr: minic.HeapBase + pageSize - 3, val: v}, {word: true, addr: minic.HeapBase + pageSize - 3}}, readVal: v},
		{name: "heap byte past end", ops: []memOp{{addr: heapEnd}}, trapAt: heapEnd},
		{name: "heap word crossing end", ops: []memOp{{store: true, word: true, addr: heapEnd - 3, val: v}}, trapAt: heapEnd},
		{name: "heap partial word kept", ops: []memOp{{store: true, word: true, addr: heapEnd - 3, val: v}, {word: true, addr: heapEnd - 8}}, readVal: 0x0607080000000000},
		{name: "heap word load crossing end", ops: []memOp{{word: true, addr: heapEnd - 1}}, trapAt: heapEnd},
		{name: "below heap", ops: []memOp{{store: true, addr: minic.HeapBase - 1, val: 1}}, trapAt: minic.HeapBase - 1},
		{name: "stack first byte", ops: []memOp{{store: true, addr: stackBase, val: 0x11}, {addr: stackBase}}, readVal: 0x11},
		{name: "stack last byte", ops: []memOp{{store: true, addr: StackTop - 1, val: 0x22}, {addr: StackTop - 1}}, readVal: 0x22},
		{name: "stack top word", ops: []memOp{{store: true, word: true, addr: StackTop - 8, val: v}, {word: true, addr: StackTop - 8}}, readVal: v},
		{name: "stack word crossing top", ops: []memOp{{store: true, word: true, addr: StackTop - 5, val: v}}, trapAt: StackTop},
		{name: "stack partial word kept", ops: []memOp{{store: true, word: true, addr: StackTop - 5, val: v}, {word: true, addr: StackTop - 8}}, readVal: 0x0405060708000000},
		{name: "below stack", ops: []memOp{{word: true, addr: stackBase - 4}}, trapAt: stackBase - 4},
		{name: "unwritten heap page", ops: []memOp{{store: true, addr: minic.HeapBase, val: 9}, {word: true, addr: minic.HeapBase + minic.HeapSize/2}}},
		{name: "unwritten stack page", ops: []memOp{{word: true, addr: stackBase + 3*pageSize + 17}}},
		{name: "rodata read", ops: []memOp{{addr: minic.RodataBase}}, readVal: int64(testRodata[0])},
		{name: "rodata write", ops: []memOp{{store: true, addr: minic.RodataBase + 2, val: 1}}, trapAt: minic.RodataBase + 2},
		{name: "data word crossing into rodata", ops: []memOp{{word: true, addr: minic.RodataBase - 4}}, readVal: 0x61646f7200000000},
		{name: "data last byte", ops: []memOp{{store: true, addr: minic.RodataBase - 1, val: 0x7f}, {addr: minic.RodataBase - 1}}, readVal: 0x7f},
		{name: "data first byte", ops: []memOp{{store: true, addr: minic.DataBase, val: 0xab}, {addr: minic.DataBase}}, readVal: 0xab},
		{name: "data first byte seeded", data: []byte{0x5c}, ops: []memOp{{addr: minic.DataBase}}, readVal: 0x5c},
		{name: "data word across page", ops: []memOp{{store: true, word: true, addr: minic.DataBase + pageSize - 3, val: v}, {word: true, addr: minic.DataBase + pageSize - 3}}, readVal: v},
		{name: "data word store crossing into rodata", ops: []memOp{{store: true, word: true, addr: dataEnd - 3, val: v}}, trapAt: dataEnd},
		{name: "data partial word kept", ops: []memOp{{store: true, word: true, addr: dataEnd - 3, val: v}, {word: true, addr: dataEnd - 8}}, readVal: 0x0607080000000000},
		{name: "unwritten data page", ops: []memOp{{store: true, addr: minic.DataBase, val: 9}, {word: true, addr: minic.DataBase + minic.DataSize/2}}},
		{name: "long env.Data last byte", data: long, ops: []memOp{{addr: dataEnd - 1}}, readVal: int64(long[minic.DataSize-1])},
		{name: "long env.Data stops at rodata", data: long, ops: []memOp{{word: true, addr: dataEnd}}, readVal: rodataWord},
		{name: "env.Data zero page", data: zeros, ops: []memOp{{word: true, addr: minic.DataBase + pageSize - 5}}},
		{name: "env.Data zero byte", data: zeros, ops: []memOp{{addr: minic.DataBase + pageSize + 4}}},
		{name: "env.Data byte after zeros", data: zeros, ops: []memOp{{addr: minic.DataBase + pageSize + 3}}, readVal: 0x44},
		{name: "env.Data zero page overwritten", data: zeros, ops: []memOp{{store: true, word: true, addr: minic.DataBase + 8, val: v}, {word: true, addr: minic.DataBase + 8}}, readVal: v},
	}
	for _, c := range cases {
		p := newRegionPair(c.data)
		var got answer
		for i, op := range c.ops {
			var d string
			if got, d = p.step(op); d != "" {
				t.Errorf("%s: op %d (%v): %s", c.name, i, op, d)
			}
		}
		if d := p.sameData(); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
		last := c.ops[len(c.ops)-1]
		if c.trapAt != 0 {
			var tr *minic.TrapError
			if !errors.As(got.err, &tr) || tr.Kind != minic.TrapOOB || tr.Addr != c.trapAt {
				t.Errorf("%s: got %v, want OOB trap at %#x", c.name, got.err, c.trapAt)
			}
			continue
		}
		if got.err != nil || (!last.store && got.val != c.readVal) {
			t.Errorf("%s: got %#x, %v; want %#x", c.name, got.val, got.err, c.readVal)
		}
	}
}

// Fuzz op encoding: four bytes per op. Byte 0 picks store (bit 0), word
// (bit 1) and the anchor (bits 2..4); bytes 1-2 are a signed little-endian
// offset from the anchor; byte 3 seeds the stored value.
var fuzzAnchors = [8]int64{
	minic.DataBase,
	minic.RodataBase,
	minic.HeapBase,
	minic.HeapBase + minic.HeapSize/2,
	minic.HeapBase + minic.HeapSize,
	stackBase,
	StackTop - pageSize,
	StackTop,
}

func decodeOps(raw []byte) []memOp {
	ops := make([]memOp, 0, len(raw)/4)
	for ; len(raw) >= 4; raw = raw[4:] {
		ops = append(ops, memOp{
			store: raw[0]&1 != 0,
			word:  raw[0]&2 != 0,
			addr:  fuzzAnchors[raw[0]>>2&7] + int64(int16(uint16(raw[1])|uint16(raw[2])<<8)),
			val:   int64(raw[3])*0x0101010101010101 ^ 0x0011223344556677,
		})
	}
	return ops
}

// fuzzData seeds the data region of both fuzzed memories: a page and a
// half of input with zero runs in it, leaving the rest of the region
// unseeded.
var fuzzData = func() []byte {
	b := make([]byte, pageSize+pageSize/2)
	for i := range b {
		if i%7 != 0 {
			b[i] = byte(i*13 + 5)
		}
	}
	return b
}()

// FuzzRegionOps applies a random access sequence to the paged memory and
// the flat oracle, both starting from fuzzData: every value read, every
// trap and every access counter must match, and so must a final
// read-back of each address touched and the final data region.
func FuzzRegionOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		ops := decodeOps(raw)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		p := newRegionPair(fuzzData)
		for i, op := range ops {
			if _, d := p.step(op); d != "" {
				t.Fatalf("op %d (%v): %s", i, op, d)
			}
		}
		for i, op := range ops {
			if _, d := p.step(memOp{word: true, addr: op.addr}); d != "" {
				t.Fatalf("read-back %d (%#x): %s", i, op.addr, d)
			}
		}
		if d := p.sameData(); d != "" {
			t.Fatal(d)
		}
	})
}
