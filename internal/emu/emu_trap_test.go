package emu

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/binimg"
	"repro/internal/compiler"
	"repro/internal/disasm"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/minic"
)

// wantTrap asserts err is a TrapError of the given kind whose rendering
// contains every fragment — the trap taxonomy is part of the failure model
// surfaced in reports, so the strings are contract, not decoration.
func wantTrap(t *testing.T, err error, kind minic.TrapKind, fragments ...string) *minic.TrapError {
	t.Helper()
	tr, ok := minic.IsTrap(err)
	if !ok {
		t.Fatalf("want %v trap, got %v", kind, err)
	}
	if tr.Kind != kind {
		t.Fatalf("trap kind = %v, want %v (err: %v)", tr.Kind, kind, tr)
	}
	for _, frag := range fragments {
		if !strings.Contains(tr.Error(), frag) {
			t.Errorf("trap %q does not mention %q", tr.Error(), frag)
		}
	}
	return tr
}

// handBuilt wraps raw instructions in a minimal disassembly, for trap paths
// the compiler never emits (stack underflow, undecodable ops, wild jumps).
func handBuilt(instrs ...disasm.DInstr) (*disasm.Disassembly, *disasm.Function) {
	fn := &disasm.Function{Name: "crafted", Addr: binimg.TextBase, Instrs: instrs}
	dis := &disasm.Disassembly{
		Image: &binimg.Image{Arch: isa.AMD64.Name, LibName: "libcrafted"},
		Arch:  isa.AMD64,
		Funcs: []*disasm.Function{fn},
	}
	return dis, fn
}

func di(in isa.Instr) disasm.DInstr { return disasm.DInstr{Instr: in} }

func TestTrapStackCallDepthOverflow(t *testing.T) {
	// Unbounded source-level recursion exhausts the frame budget.
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("rec", []string{"a"},
			minic.Ret(minic.Call("rec", minic.Add(minic.V("a"), minic.I(1))))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O1)
	res, err := ExecuteByName(dis, "rec", &minic.Env{Args: []int64{0}}, 0)
	wantTrap(t, err, minic.TrapStack, "stack fault", "call stack overflow")
	if res == nil || res.Trace == nil || res.Trace.Instrs == 0 {
		t.Error("trap did not carry the partial trace")
	}
}

func TestTrapStackPushOverflow(t *testing.T) {
	// Enough pushes to walk the machine stack past its floor. The frame
	// budget never triggers (no calls), so this exercises the Push guard.
	// On the way down every stack page is written, so the trap and the
	// counters must match the flat oracle exactly.
	n := StackSize/8 + 1
	instrs := make([]disasm.DInstr, 0, n+1)
	for i := 0; i < n; i++ {
		instrs = append(instrs, di(isa.Instr{Op: isa.Push, Rs1: 0}))
	}
	instrs = append(instrs, di(isa.Instr{Op: isa.Ret}))
	dis, fn := handBuilt(instrs...)
	env := &minic.Env{Args: []int64{-1}}
	res, err := Execute(dis, fn, env, int64(n)+16)
	wantTrap(t, err, minic.TrapStack, "stack overflow")
	want, werr := executeFlat(dis, fn, env, int64(n)+16)
	if d := sameOutcome(res, err, want, werr); d != "" {
		t.Error(d)
	}
	if res.Trace.StackAccess != StackSize {
		t.Errorf("stack accesses = %d, want every stack byte written once (%d)", res.Trace.StackAccess, StackSize)
	}
}

func TestTrapStackPopUnderflow(t *testing.T) {
	dis, fn := handBuilt(
		di(isa.Instr{Op: isa.Pop, Rd: 0}),
		di(isa.Instr{Op: isa.Ret}),
	)
	_, err := Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapStack, "stack underflow")
}

func TestTrapDecodeVariants(t *testing.T) {
	// Falling off the end of the instruction stream.
	dis, fn := handBuilt(di(isa.Instr{Op: isa.Nop}))
	_, err := Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapDecode, "decode fault", "outside function")

	// An opcode the emulator does not implement.
	dis, fn = handBuilt(di(isa.Instr{Op: isa.Op(250)}))
	_, err = Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapDecode, "unimplemented op")

	// A branch that lands between instruction boundaries.
	dis, fn = handBuilt(
		di(isa.Instr{Op: isa.Jmp, Imm: 3}),
		di(isa.Instr{Op: isa.Ret}),
	)
	_, err = Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapDecode, "mid-instruction")
}

func TestTrapBadCallVariants(t *testing.T) {
	// Direct call to an address hosting no function.
	dis, fn := handBuilt(
		di(isa.Instr{Op: isa.Call, Imm: 0xdead}),
		di(isa.Instr{Op: isa.Ret}),
	)
	_, err := Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapBadCall, "bad call", "unmapped address")

	// Import call with an index outside the builtin table.
	dis, fn = handBuilt(
		di(isa.Instr{Op: isa.CallI, Imm: int64(minic.NumBuiltins())}),
		di(isa.Instr{Op: isa.Ret}),
	)
	_, err = Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapBadCall, "bad import index")
}

func TestTrapStepLimitRendering(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("spin", nil,
			minic.Loop(minic.I(1), minic.Set("x", minic.Add(minic.V("x"), minic.I(1)))),
			minic.Ret(minic.V("x"))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O1)
	res, err := ExecuteByName(dis, "spin", &minic.Env{}, 500)
	wantTrap(t, err, minic.TrapStepLimit, "step limit exceeded")
	if res == nil || res.Trace.Instrs != 501 {
		t.Errorf("step-limit trace should stop at limit+1 instructions, got %+v", res)
	}
}

func TestTrapBudgetWatchdog(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("spin", nil,
			minic.Loop(minic.I(1), minic.Set("x", minic.Add(minic.V("x"), minic.I(1)))),
			minic.Ret(minic.V("x"))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O1)
	fn, _ := dis.Lookup("spin")

	// An already-expired deadline trips the watchdog at the first stride
	// poll: a TrapBudget trap with the instruction count, plus the partial
	// trace — the execution failed, not the scan.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := ExecuteCtx(ctx, dis, fn, &minic.Env{}, 0)
	tr := wantTrap(t, err, minic.TrapBudget, "wall-clock budget exceeded", "instructions")
	if tr.Msg == "" {
		t.Error("budget trap should say how far execution got")
	}
	if res == nil || res.Trace.Instrs == 0 || res.Trace.Instrs%watchdogStride != 0 {
		t.Errorf("budget trap should land on a watchdog stride, got %+v", res.Trace)
	}

	// Plain cancellation is NOT a trap: the scan is being torn down, so the
	// context's own error comes back verbatim.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	_, err = ExecuteCtx(cctx, dis, fn, &minic.Env{}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
	if _, ok := minic.IsTrap(err); ok {
		t.Error("cancellation must not masquerade as a trap")
	}

	// Background/nil contexts disable the watchdog entirely: the run
	// completes against the step limit only.
	if _, err := ExecuteCtx(context.Background(), dis, fn, &minic.Env{}, 100); err == nil {
		t.Error("expected step-limit trap")
	} else {
		wantTrap(t, err, minic.TrapStepLimit)
	}
}

func TestExecuteFaultInjection(t *testing.T) {
	mod := &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("ok", nil, minic.Ret(minic.I(7))),
	}}
	dis := disassembled(t, mod, isa.AMD64, compiler.O1)
	fn, _ := dis.Lookup("ok")

	// Clean run first: disarmed fault points cost nothing and change nothing.
	res, err := Execute(dis, fn, &minic.Env{}, 0)
	if err != nil || res.Ret != 7 {
		t.Fatalf("clean run: ret=%v err=%v", res, err)
	}

	injected := &minic.TrapError{Kind: minic.TrapDecode, Msg: "injected corruption"}
	defer faultinject.Arm(faultinject.ExecTrap, dis.Image.LibName+":"+fn.Name, injected)()
	res, err = Execute(dis, fn, &minic.Env{}, 0)
	wantTrap(t, err, minic.TrapDecode, "injected corruption")
	if res == nil || res.Trace == nil {
		t.Error("injected fault should still return the (empty) partial result")
	}
	if res.Trace.Instrs != 0 {
		t.Error("injected pre-execution fault must not execute instructions")
	}

	// Other functions in the same image are unaffected (exact-key match).
	other := disassembled(t, &minic.Module{Name: "t", Funcs: []*minic.Func{
		minic.NewFunc("bystander", nil, minic.Ret(minic.I(1))),
	}}, isa.AMD64, compiler.O1)
	if _, err := ExecuteByName(other, "bystander", &minic.Env{}, 0); err != nil {
		t.Errorf("bystander function hit the fault: %v", err)
	}
}
