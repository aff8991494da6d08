package machine

import (
	"fmt"

	"smvx/internal/sim/image"
	"smvx/internal/sim/mem"
	"smvx/internal/sim/mpk"
)

// maxGadgetSteps bounds a hijacked control flow before the simulation
// declares the thread wedged.
const maxGadgetSteps = 4096

// runGadgets interprets machine code starting at ip after a control-flow
// hijack. It executes the subset of x86-64 a return-oriented chain built
// from our generated .text can contain — pop reg, ret, nop, and jumps into
// the PLT (libc calls with register arguments). Everything else is an
// illegal instruction.
//
// The interpreter operates on the thread's view: an address outside the
// variant's execution window, or in unmapped memory, faults exactly as it
// would for the follower variant in Section 4.2's exploit, where gadget
// addresses valid in the leader are "otherwise unmapped" for the follower.
//
// runGadgets never returns normally: a chain ends in a fault (jump to
// unmapped/invalid memory, illegal instruction, or stack exhaustion).
func (t *Thread) runGadgets(ip mem.Addr) {
	img := t.m.prog.img
	plt, hasPLT := img.Section(image.SecPLT)
	for step := 0; ; step++ {
		if step >= maxGadgetSteps {
			t.fault(fmt.Errorf("machine: runaway gadget chain after %d steps", step))
		}
		t.ip = ip
		if ip == 0 {
			t.fault(&mem.FaultError{Kind: mem.FaultUnmapped, Addr: 0, Access: mpk.Execute})
		}
		t.checkExecWindow(ip)

		// A jump into the PLT (in this thread's view) is a libc call with
		// the current register arguments.
		if hasPLT {
			pltLo := mem.Addr(int64(plt.Addr) + t.bias)
			pltHi := mem.Addr(int64(plt.End()) + t.bias)
			if ip >= pltLo && ip < pltHi {
				slot := int((ip - pltLo) / image.PLTEntrySize)
				names := img.PLTSlots()
				if slot < 0 || slot >= len(names) {
					t.fault(fmt.Errorf("machine: gadget jump into PLT padding at %s", ip))
				}
				name := names[slot]
				t.pltCalls.Add(1)
				args := []uint64{t.regs[RDI], t.regs[RSI], t.regs[RDX]}
				var rax uint64
				gotAddr := mem.Addr(int64(img.GOTSlotAddr(slot)) + t.bias)
				target, err := t.m.as.Read64(gotAddr)
				if err != nil {
					t.fault(err)
				}
				if mem.Addr(target) == image.LibcSentinelBase+mem.Addr(slot) {
					rax = t.m.libc.Call(t, slot, name, args)
				} else if ipo := t.m.hooks.Load().interposer; ipo != nil {
					rax = ipo.Intercept(t, slot, name, args)
				} else {
					t.fault(fmt.Errorf("machine: patched PLT with no interposer during gadget chain"))
				}
				t.regs[RAX] = rax
				// The libc function returns through the chain's next word.
				ip = mem.Addr(t.pop())
				continue
			}
		}

		var insn [2]byte
		if err := t.m.as.FetchCode(ip, insn[:1]); err != nil {
			t.fault(err)
		}
		op := insn[0]
		switch {
		case op == image.OpRet:
			ip = mem.Addr(t.pop())
		case op >= 0x58 && op <= 0x5F: // pop r64
			reg := int(op - 0x58)
			t.regs[reg] = t.pop()
			ip++
		case op == 0x90: // nop
			ip++
		default:
			t.fault(fmt.Errorf("machine: illegal instruction %#02x at %s during gadget chain", op, ip))
		}
	}
}
