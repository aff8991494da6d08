// Package image models a loaded program binary: ELF-like sections (.text,
// .rodata, .data, .bss, .plt, .got.plt), a symbol table, and PLT/GOT slots.
//
// The image plays three roles from the paper:
//
//   - The profile script (Section 3.2) extracts section offsets/sizes and
//     the symbol table into a /tmp profile file that the sMVX monitor reads
//     at setup; WriteProfile/ParseProfile implement both halves.
//   - The monitor patches the loaded PLT entries so every libc call goes
//     through the MPK trampoline (Section 3.4); GOT slots here live in
//     simulated memory, so patching is a real memory write.
//   - .text is filled with deterministic pseudo-code bytes, which gives the
//     Ropper-style gadget scanner (Section 4.2) something real to search
//     and makes gadget addresses layout-specific.
package image

import (
	"fmt"
	"sort"

	"smvx/internal/sim/mem"
)

// Section names used by the loader and the profile file.
const (
	SecText   = ".text"
	SecRodata = ".rodata"
	SecData   = ".data"
	SecBSS    = ".bss"
	SecPLT    = ".plt"
	SecGotPLT = ".got.plt"
)

// PLTEntrySize is the size of one PLT stub in bytes.
const PLTEntrySize = 16

// Symbol is one function or object symbol.
type Symbol struct {
	// Name is the symbol name (e.g. "ngx_http_handler").
	Name string
	// Addr is the symbol's virtual address in the mapped image.
	Addr mem.Addr
	// Size is the symbol extent in bytes.
	Size uint64
}

// Contains reports whether a falls inside the symbol.
func (s Symbol) Contains(a mem.Addr) bool {
	return a >= s.Addr && a < s.Addr+mem.Addr(s.Size)
}

// Section is one mapped section.
type Section struct {
	// Name is the section name.
	Name string
	// Addr is the section's base virtual address.
	Addr mem.Addr
	// Size is the section length in bytes.
	Size uint64
	// Perm is the section's page permissions.
	Perm mem.Perm
}

// End returns the first address past the section.
func (s Section) End() mem.Addr { return s.Addr + mem.Addr(s.Size) }

// Image is a fully laid-out program binary, ready to map.
type Image struct {
	// Name identifies the binary (e.g. "nginx").
	Name string
	// Base is the load base address.
	Base mem.Addr

	sections map[string]Section
	symbols  []Symbol // sorted by Addr
	byName   map[string]int

	// pltBase and gotBase are the .plt and .got.plt section addresses,
	// kept so that a slot's stub and GOT word are one addition away.
	pltBase, gotBase mem.Addr

	// pltSlots[i] is the libc function name reached through PLT slot i.
	pltSlots []string
	pltIndex map[string]int

	dataInit map[mem.Addr][]byte
}

// Builder assembles an Image. Functions get sequential .text addresses;
// global objects get .data or .bss addresses; each referenced libc function
// gets a PLT slot.
type Builder struct {
	name string
	base mem.Addr

	funcs   []Symbol
	objects []Symbol
	bss     []Symbol
	textOff uint64
	dataOff uint64
	bssOff  uint64

	dataInit map[uint64][]byte // keyed by data offset

	pltSlots []string
	pltIndex map[string]int
}

// NewBuilder starts an image for a binary loaded at base.
func NewBuilder(name string, base mem.Addr) *Builder {
	return &Builder{
		name:     name,
		base:     base,
		pltIndex: make(map[string]int),
		dataInit: make(map[uint64][]byte),
	}
}

// AddFunc reserves size bytes of .text for a function and returns its
// future address (relative layout is fixed at Add time).
func (b *Builder) AddFunc(name string, size uint64) *Builder {
	if size == 0 {
		size = 64
	}
	// Align functions to 16 bytes, as compilers do.
	b.textOff = (b.textOff + 15) &^ 15
	b.funcs = append(b.funcs, Symbol{Name: name, Addr: mem.Addr(b.textOff), Size: size})
	b.textOff += size
	return b
}

// AddData reserves an initialized .data object, optionally with initial
// bytes (zero-padded to size).
func (b *Builder) AddData(name string, size uint64, init []byte) *Builder {
	b.dataOff = (b.dataOff + 7) &^ 7
	b.objects = append(b.objects, Symbol{Name: name, Addr: mem.Addr(b.dataOff), Size: size})
	if len(init) > 0 {
		b.dataInit[b.dataOff] = append([]byte(nil), init...)
	}
	b.dataOff += size
	return b
}

// AddBSS reserves a zero-initialized .bss object.
func (b *Builder) AddBSS(name string, size uint64) *Builder {
	b.bssOff = (b.bssOff + 7) &^ 7
	b.bss = append(b.bss, Symbol{Name: name, Addr: mem.Addr(b.bssOff), Size: size})
	b.bssOff += size
	return b
}

// NeedLibc declares that the program calls the named libc functions,
// allocating one PLT slot per name (idempotent).
func (b *Builder) NeedLibc(names ...string) *Builder {
	for _, n := range names {
		if _, ok := b.pltIndex[n]; !ok {
			b.pltIndex[n] = len(b.pltSlots)
			b.pltSlots = append(b.pltSlots, n)
		}
	}
	return b
}

func pageCeil(n uint64) uint64 {
	return (n + mem.PageSize - 1) &^ (mem.PageSize - 1)
}

// Build lays out the sections:
//
//	base+0x0000        .text
//	…                  .rodata
//	…                  .data
//	…                  .bss
//	…                  .plt
//	…                  .got.plt
//
// each starting on a page boundary.
func (b *Builder) Build() *Image {
	img := &Image{
		Name:     b.name,
		Base:     b.base,
		sections: make(map[string]Section, 6),
		byName:   make(map[string]int),
		pltSlots: append([]string(nil), b.pltSlots...),
		pltIndex: make(map[string]int, len(b.pltIndex)),
		dataInit: make(map[mem.Addr][]byte),
	}
	for k, v := range b.pltIndex {
		img.pltIndex[k] = v
	}

	textSize := pageCeil(maxU64(b.textOff, 1))
	rodataSize := uint64(mem.PageSize)
	dataSize := pageCeil(maxU64(b.dataOff, 1))
	bssSize := pageCeil(maxU64(b.bssOff, 1))
	pltSize := pageCeil(maxU64(uint64(len(b.pltSlots))*PLTEntrySize, 1))
	gotSize := pageCeil(maxU64(uint64(len(b.pltSlots))*8, 1))

	addr := b.base
	add := func(name string, size uint64, perm mem.Perm) Section {
		s := Section{Name: name, Addr: addr, Size: size, Perm: perm}
		img.sections[name] = s
		addr += mem.Addr(size)
		return s
	}
	text := add(SecText, textSize, mem.PermRX)
	add(SecRodata, rodataSize, mem.PermRead)
	data := add(SecData, dataSize, mem.PermRW)
	bss := add(SecBSS, bssSize, mem.PermRW)
	img.pltBase = add(SecPLT, pltSize, mem.PermRX).Addr
	img.gotBase = add(SecGotPLT, gotSize, mem.PermRW).Addr

	for _, f := range b.funcs {
		img.symbols = append(img.symbols, Symbol{Name: f.Name, Addr: text.Addr + f.Addr, Size: f.Size})
	}
	for _, o := range b.objects {
		img.symbols = append(img.symbols, Symbol{Name: o.Name, Addr: data.Addr + o.Addr, Size: o.Size})
	}
	for off, init := range b.dataInit {
		img.dataInit[data.Addr+mem.Addr(off)] = init
	}
	for _, o := range b.bss {
		img.symbols = append(img.symbols, Symbol{Name: o.Name, Addr: bss.Addr + o.Addr, Size: o.Size})
	}
	sort.Slice(img.symbols, func(i, j int) bool { return img.symbols[i].Addr < img.symbols[j].Addr })
	for i, s := range img.symbols {
		img.byName[s.Name] = i
	}
	return img
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Section returns the named section.
func (img *Image) Section(name string) (Section, bool) {
	s, ok := img.sections[name]
	return s, ok
}

// Sections returns all sections sorted by address.
func (img *Image) Sections() []Section {
	out := make([]Section, 0, len(img.sections))
	for _, s := range img.sections {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// End returns the first address past the image.
func (img *Image) End() mem.Addr {
	end := img.Base
	for _, s := range img.sections {
		if s.End() > end {
			end = s.End()
		}
	}
	return end
}

// Lookup resolves a symbol by name.
func (img *Image) Lookup(name string) (Symbol, bool) {
	i, ok := img.byName[name]
	if !ok {
		return Symbol{}, false
	}
	return img.symbols[i], true
}

// SymbolAt returns the symbol containing addr, if any — the r2pipe-style
// "find nearest function" used by the taint workflow (Figure 3).
func (img *Image) SymbolAt(addr mem.Addr) (Symbol, bool) {
	i := sort.Search(len(img.symbols), func(i int) bool {
		return img.symbols[i].Addr+mem.Addr(img.symbols[i].Size) > addr
	})
	if i < len(img.symbols) && img.symbols[i].Contains(addr) {
		return img.symbols[i], true
	}
	return Symbol{}, false
}

// Symbols returns the symbol table sorted by address.
func (img *Image) Symbols() []Symbol {
	return append([]Symbol(nil), img.symbols...)
}

// PLTSlot returns the PLT slot index for a libc function.
func (img *Image) PLTSlot(libcName string) (int, bool) {
	i, ok := img.pltIndex[libcName]
	return i, ok
}

// PLTSlots returns the libc function name per PLT slot.
func (img *Image) PLTSlots() []string {
	return append([]string(nil), img.pltSlots...)
}

// PLTEntryAddr returns the address of PLT slot i.
func (img *Image) PLTEntryAddr(i int) mem.Addr {
	return img.pltBase + mem.Addr(i*PLTEntrySize)
}

// GOTSlotAddr returns the address of the .got.plt word for slot i.
func (img *Image) GOTSlotAddr(i int) mem.Addr {
	return img.gotBase + mem.Addr(i*8)
}

// MapInto maps every section into the address space, fills .text and .plt
// with deterministic pseudo-code bytes, and initializes .got.plt slots to
// the sentinel "direct libc" value. prefix distinguishes leader regions
// from follower clones in region names (pass "" for the leader).
func (img *Image) MapInto(as *mem.AddressSpace, prefix string) error {
	for _, s := range img.Sections() {
		name := prefix + s.Name
		if _, err := as.Map(mem.Region{Name: name, Base: s.Addr, Size: s.Size, Perm: s.Perm}); err != nil {
			return fmt.Errorf("image %s: map %s: %w", img.Name, name, err)
		}
	}
	if err := img.fillText(as); err != nil {
		return err
	}
	for addr, init := range img.dataInit {
		if err := as.WriteAt(addr, init); err != nil {
			return fmt.Errorf("image %s: init data at %s: %w", img.Name, addr, err)
		}
	}
	// GOT slots initially point straight at libc (sentinel addresses in
	// the libc pseudo-range); the monitor later patches them.
	for i := range img.pltSlots {
		if err := as.Write64(img.GOTSlotAddr(i), uint64(LibcSentinelBase)+uint64(i)); err != nil {
			return fmt.Errorf("image %s: init got slot %d: %w", img.Name, i, err)
		}
	}
	// .bss and .data are demand-zero but the loader touches them so the
	// process has a realistic initial RSS.
	for _, secName := range []string{SecData, SecBSS, SecGotPLT} {
		s := img.sections[secName]
		if err := as.Touch(s.Addr, s.Size); err != nil {
			return err
		}
	}
	return nil
}

// LibcSentinelBase is the pseudo-address range representing unpatched libc
// targets in .got.plt: slot i holds LibcSentinelBase+i until the monitor
// patches it. The range is deliberately outside any mappable region.
const LibcSentinelBase mem.Addr = 0x7f00_0000_0000
