package emu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/isa"
	"repro/internal/minic"
)

// flatMem is the emulator's original address space, kept as the test
// oracle for the paged one: the heap and the stack are flat, eagerly
// zeroed 1 MiB slices. Its region lookup and counting are the reference
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
	return execute(nil, dis, fn, env, limit, nil, mem, mem.data, tr)
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
	case string(got.Mem) != string(want.Mem):
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

// TestExecutionCarriesNoResidue runs B after an A that wrote heap and
// stack pages: B's outcome must equal B run alone. Executions share no
// memory today; this pins that down for any future reuse of machines or
// pages.
func TestExecutionCarriesNoResidue(t *testing.T) {
	envs := diffEnvs()
	var pairs int
	for _, dis := range diffCorpus(t) {
		for ai, a := range dis.Funcs {
			b := dis.Funcs[(ai+1)%len(dis.Funcs)]
			for ei, env := range envs {
				benv := envs[(ei+1)%len(envs)]
				alone, aerr := Execute(dis, b, benv, diffSteps)
				ra, _ := Execute(dis, a, env, diffSteps)
				if ra.Trace.HeapAccess == 0 || ra.Trace.StackAccess == 0 || ra.Trace.StoreInstrs == 0 {
					continue
				}
				got, gerr := Execute(dis, b, benv, diffSteps)
				if d := sameOutcome(got, gerr, alone, aerr); d != "" {
					t.Errorf("%s: %s after %s: %s", dis.Image.Arch, b.Name, a.Name, d)
				}
				pairs++
				break // one writing A per pair is enough
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no A wrote both heap and stack")
	}
	t.Logf("%d A-then-B pairs", pairs)
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

func newRegionPair() regionPair {
	return regionPair{
		paged: &taggedMem{data: make([]byte, minic.DataSize), rodata: testRodata, trace: newTrace()},
		flat:  newFlatMem(testRodata, newTrace()),
	}
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

// TestRegionBoundaries walks the edges of the paged regions: first and
// last byte of heap and stack, words that cross a region's end (the
// in-bounds bytes land, then the access traps), never-written pages, and
// the data/rodata neighbours. Each case runs on a fresh pair, and the
// expected trap is checked explicitly, not just matched to the oracle.
// Pushing down to the stack limit is TestTrapStackPushOverflow.
func TestRegionBoundaries(t *testing.T) {
	heapEnd := int64(minic.HeapBase + minic.HeapSize)
	const v = 0x0102030405060708
	cases := []struct {
		name    string
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
	}
	for _, c := range cases {
		p := newRegionPair()
		var got answer
		for i, op := range c.ops {
			var d string
			if got, d = p.step(op); d != "" {
				t.Errorf("%s: op %d (%v): %s", c.name, i, op, d)
			}
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

// FuzzRegionOps applies a random access sequence to the paged memory and
// the flat oracle: every value read, every trap and every access counter
// must match, and so must a final read-back of each address touched.
func FuzzRegionOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		ops := decodeOps(raw)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		p := newRegionPair()
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
	})
}
