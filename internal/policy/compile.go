package policy

import (
	"fmt"
	"sort"
)

// TableLimit caps the number of identifiers expanded into one hardware
// table, mirroring the bounded CAM capacity of a real policy engine.
const TableLimit = 4096

// MaxStandardID is the largest 11-bit CAN identifier the bitmap lookup
// covers directly (canbus.MaxStandardID, restated to keep policy free of a
// canbus dependency).
const MaxStandardID = 0x7FF

// LookupKind selects the data structure backing a compiled identifier
// table. The choice is an ablation axis in the benchmarks: a real HPE is a
// CAM (constant time), software implementations pick among these.
type LookupKind uint8

// Lookup kinds.
const (
	// LookupHash uses a hash set (Go map).
	LookupHash LookupKind = iota + 1
	// LookupSorted uses a sorted slice with binary search.
	LookupSorted
	// LookupLinear uses an unsorted slice with linear scan.
	LookupLinear
	// LookupBitmap uses a 2048-bit direct-mapped bitmap over the standard
	// 11-bit identifier space — the closest software analogue of the CAM a
	// real policy engine ships, and the default when every identifier fits.
	// Tables containing extended identifiers fall back to LookupHash.
	LookupBitmap
)

// String returns the lookup kind name.
func (k LookupKind) String() string {
	switch k {
	case LookupHash:
		return "hash"
	case LookupSorted:
		return "sorted"
	case LookupLinear:
		return "linear"
	case LookupBitmap:
		return "bitmap"
	default:
		return "invalid"
	}
}

// IDLookup answers membership queries over a fixed identifier set. Every
// enforcement backend implements its approved lists as IDLookups, and the
// HPE calls Contains once per frame, so Contains must not allocate.
type IDLookup interface {
	// Contains reports whether id is in the set.
	Contains(id uint32) bool
	// Len returns the number of identifiers stored.
	Len() int
	// IDs returns the stored identifiers in ascending order.
	IDs() []uint32
}

type hashLookup map[uint32]struct{}

func (h hashLookup) Contains(id uint32) bool { _, ok := h[id]; return ok }
func (h hashLookup) Len() int                { return len(h) }
func (h hashLookup) IDs() []uint32 {
	out := make([]uint32, 0, len(h))
	for id := range h {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type sortedLookup []uint32

func (s sortedLookup) Contains(id uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}
func (s sortedLookup) Len() int      { return len(s) }
func (s sortedLookup) IDs() []uint32 { return append([]uint32(nil), s...) }

// bitmapLookup covers the standard 11-bit identifier space with one bit per
// identifier: a Contains is two shifts and a mask, no hashing.
type bitmapLookup struct {
	bits [(MaxStandardID + 1) / 64]uint64
	n    int
}

func (b *bitmapLookup) Contains(id uint32) bool {
	if id > MaxStandardID {
		return false
	}
	return b.bits[id>>6]&(1<<(id&63)) != 0
}
func (b *bitmapLookup) Len() int { return b.n }
func (b *bitmapLookup) IDs() []uint32 {
	out := make([]uint32, 0, b.n)
	for id := uint32(0); id <= MaxStandardID; id++ {
		if b.bits[id>>6]&(1<<(id&63)) != 0 {
			out = append(out, id)
		}
	}
	return out
}

type linearLookup []uint32

func (l linearLookup) Contains(id uint32) bool {
	for _, v := range l {
		if v == id {
			return true
		}
	}
	return false
}
func (l linearLookup) Len() int { return len(l) }
func (l linearLookup) IDs() []uint32 {
	out := append([]uint32(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewIDLookup builds a lookup of the requested kind over ids.
func NewIDLookup(kind LookupKind, ids []uint32) (IDLookup, error) {
	switch kind {
	case LookupBitmap:
		for _, id := range ids {
			if id > MaxStandardID {
				// Extended identifiers exceed the direct-mapped range.
				return NewIDLookup(LookupHash, ids)
			}
		}
		b := &bitmapLookup{}
		for _, id := range ids {
			if b.bits[id>>6]&(1<<(id&63)) == 0 {
				b.bits[id>>6] |= 1 << (id & 63)
				b.n++
			}
		}
		return b, nil
	case LookupHash:
		h := make(hashLookup, len(ids))
		for _, id := range ids {
			h[id] = struct{}{}
		}
		return h, nil
	case LookupSorted:
		s := append(sortedLookup(nil), ids...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s, nil
	case LookupLinear:
		return append(linearLookup(nil), ids...), nil
	default:
		return nil, fmt.Errorf("policy: unknown lookup kind %d", kind)
	}
}

// ModeTable is the pair of approved-identifier lists of Fig. 4 for one
// operating mode: the approved reading list and the approved writing list.
type ModeTable struct {
	// Reads is the approved reading list.
	Reads IDLookup
	// Writes is the approved writing list.
	Writes IDLookup
}

// NodeTable holds a node's compiled tables for every operating mode: the
// form the HPE installs, whichever enforcement backend built it.
type NodeTable struct {
	// Subject is the node the table belongs to.
	Subject string
	// PerMode maps each operating mode to its approved lists.
	PerMode map[Mode]ModeTable
}

// Table reports the mode table for m, falling back to an empty (deny-all)
// table when the mode is unknown.
func (t *NodeTable) Table(m Mode) ModeTable {
	if mt, ok := t.PerMode[m]; ok {
		return mt
	}
	return ModeTable{Reads: sortedLookup(nil), Writes: sortedLookup(nil)}
}

// Compiled is the output of compiling a Set for a concrete device: one
// NodeTable per subject, for each declared mode. It is immutable after
// compilation; the HPE swaps whole Compiled values on policy update.
type Compiled struct {
	// Name and Version are carried over from the source Set.
	Name    string
	Version uint64
	// Modes lists the operating modes the tables cover.
	Modes []Mode
	nodes map[string]*NodeTable
}

// Node returns the compiled table for a subject. Unknown subjects get a
// deny-all table, preserving closed-world semantics.
func (c *Compiled) Node(subject string) *NodeTable {
	if t, ok := c.nodes[subject]; ok {
		return t
	}
	return &NodeTable{Subject: subject, PerMode: map[Mode]ModeTable{}}
}

// Subjects returns the sorted subjects with compiled tables.
func (c *Compiled) Subjects() []string {
	out := make([]string, 0, len(c.nodes))
	for s := range c.nodes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// CompileOptions parameterises compilation.
type CompileOptions struct {
	// Subjects lists every node of the device, so wildcard rules expand and
	// every node receives a table. Required.
	Subjects []string
	// Modes lists every operating mode of the device. Required.
	Modes []Mode
	// Lookup selects the table data structure; LookupBitmap if zero
	// (falling back per table to LookupHash for extended identifiers).
	Lookup LookupKind
	// Backend names the enforcement backend to compile for ("table",
	// "expr", "closure"); empty selects the default. Compile itself always
	// produces the interpreted table form — the field is consumed by
	// ir.Build, which dispatches to the registered backend (policy cannot
	// import ir without a cycle).
	Backend string
}

// Compile expands a rule set into per-node, per-mode approved reading and
// writing lists — the exact artifact loaded into the Fig. 4 policy engine.
//
// Expansion evaluates Decide for every identifier mentioned by any rule, so
// deny-overrides and wildcard subjects behave identically in the compiled
// tables and in direct Set evaluation (a property the tests assert).
func Compile(set *Set, opts CompileOptions) (*Compiled, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Subjects) == 0 {
		return nil, fmt.Errorf("policy: compile requires the device's subject list")
	}
	if len(opts.Modes) == 0 {
		return nil, fmt.Errorf("policy: compile requires the device's mode list")
	}
	kind := opts.Lookup
	if kind == 0 {
		kind = LookupBitmap
	}

	// Collect the universe of identifiers any rule mentions.
	var universe IDSet
	for _, r := range set.Rules {
		universe = append(universe, r.IDs...)
	}
	ids, err := universe.Enumerate(TableLimit)
	if err != nil {
		return nil, err
	}

	out := &Compiled{
		Name:    set.Name,
		Version: set.Version,
		Modes:   append([]Mode(nil), opts.Modes...),
		nodes:   make(map[string]*NodeTable, len(opts.Subjects)),
	}
	for _, subj := range opts.Subjects {
		nt := &NodeTable{Subject: subj, PerMode: make(map[Mode]ModeTable, len(opts.Modes))}
		for _, mode := range opts.Modes {
			var reads, writes []uint32
			for _, id := range ids {
				if set.Decide(subj, mode, ActRead, id) == Allow {
					reads = append(reads, id)
				}
				if set.Decide(subj, mode, ActWrite, id) == Allow {
					writes = append(writes, id)
				}
			}
			rl, err := NewIDLookup(kind, reads)
			if err != nil {
				return nil, err
			}
			wl, err := NewIDLookup(kind, writes)
			if err != nil {
				return nil, err
			}
			nt.PerMode[mode] = ModeTable{Reads: rl, Writes: wl}
		}
		out.nodes[subj] = nt
	}
	return out, nil
}
