package pta

import (
	mbits "math/bits"
	"strings"
	"sync"

	"introspect/internal/ir"
)

// This file implements the solver's derivation-witness recorder and the
// post-solve reconstruction API over it.
//
// When Options.Provenance is set, the solver records, for every
// points-to fact (node, hc) it establishes, the constraint-graph node
// the fact first arrived from. Facts propagate only through the
// word-parallel kernel (bits.Set.UnionWords), and each kernel call
// moves facts from exactly one source node into one destination, so
// the recorder hooks the kernel's per-word visit callback: every word
// that gains bits appends one (word, from, bits) record to the
// destination node's chain. New bits are disjoint across calls, so
// each fact lands in exactly one record — its first derivation — and
// an introduction fact (Alloc, dispatch this-binding) is a one-bit
// record with source provIntro. Because the source fact necessarily
// exists before it propagates, the recorded edges form a DAG: walking
// them back from any fact terminates at the node where the object was
// introduced (the allocation's target variable, or a callee's this
// bound by dispatch). That walk, reversed, is a shortest-by-
// construction derivation path
//
//	alloc → var → … → field → … → var
//
// which clients (internal/checkers) attach to diagnostics as a witness.
//
// Recording costs one record per changed word — not per fact — and
// leaves the propagation schedule and the work accounting untouched,
// so a recorded solve derives the same facts in the same order as an
// unrecorded one. With the flag off the only cost is a nil check per
// changed word.

// provIntro is the recorded source of a fact introduced directly —
// by an Alloc instruction or by the this-binding of a dispatch — rather
// than propagated across a constraint edge.
const provIntro int32 = -1

// provRecord says that the facts (n, 64*word+b), for every set bit b of
// bits, were first derived from node from. A node's records form a
// chain through next, newest first.
type provRecord struct {
	bits uint64
	word int32
	from int32
	next int32 // index+1 of the node's previous record; 0 ends the chain
}

// provRecorder keeps every node's record chain in one arena.
type provRecorder struct {
	head  []int32 // node → index+1 of its newest record; 0: none
	recs  []provRecord
	facts int

	// dst and from bind the destination and source node of the kernel
	// call in progress; visit is the bound method value handed to the
	// kernel, built once per solve so binding allocates nothing.
	dst, from int32
	visit     func(word int, bits uint64)

	// runs caches, per node looked up after the solve, a contiguous
	// copy of its chain (see source); mu guards it because a Result
	// may be explained from several goroutines.
	mu   sync.Mutex
	runs map[int32][]provRecord
}

func newProvRecorder() *provRecorder {
	p := &provRecorder{runs: make(map[int32][]provRecord)}
	p.visit = p.add
	return p
}

// bind returns the kernel visitor that records facts new to dst as
// derived from node from, or nil when recording is off (p == nil).
func (p *provRecorder) bind(dst, from int32) func(word int, bits uint64) {
	if p == nil {
		return nil
	}
	p.dst, p.from = dst, from
	return p.visit
}

// add appends a record for the bound (dst, from) pair.
func (p *provRecorder) add(word int, bits uint64) {
	n := int(p.dst)
	if n >= len(p.head) {
		p.head = append(p.head, make([]int32, n+1-len(p.head))...)
	}
	p.recs = append(p.recs, provRecord{bits: bits, word: int32(word), from: p.from, next: p.head[n]})
	p.head[n] = int32(len(p.recs))
	p.facts += mbits.OnesCount64(bits)
}

// recordIntro notes that fact (n, hc) was introduced directly. Callers
// only invoke it when the fact is new.
func (p *provRecorder) recordIntro(n, hc int32) {
	p.dst, p.from = n, provIntro
	p.add(int(hc/64), 1<<uint(hc%64))
}

// source returns the first-deriving source node of fact (n, hc):
// provIntro for introduction points, ok=false if the fact was never
// recorded. The first lookup of a node copies its chain into one
// contiguous run, so the lookups a witness walk repeats over a large
// points-to set scan adjacent records instead of hopping the arena.
func (p *provRecorder) source(n, hc int32) (int32, bool) {
	if int(n) >= len(p.head) {
		return 0, false
	}
	p.mu.Lock()
	run, ok := p.runs[n]
	if !ok {
		for i := p.head[n]; i != 0; i = p.recs[i-1].next {
			run = append(run, p.recs[i-1])
		}
		p.runs[n] = run
	}
	p.mu.Unlock()
	word, bit := hc/64, uint64(1)<<uint(hc%64)
	for i := range run {
		if run[i].word == word && run[i].bits&bit != 0 {
			return run[i].from, true
		}
	}
	return 0, false
}

// len returns the number of recorded facts.
func (p *provRecorder) len() int { return p.facts }

// --- post-solve reconstruction ---

// ProvenanceEnabled reports whether this result was produced with
// Options.Provenance set, i.e. whether Explain can reconstruct
// derivation witnesses.
func (r *Result) ProvenanceEnabled() bool { return r.s.prov != nil }

// NumProvenanceFacts returns the number of facts with a recorded
// derivation (0 when provenance was disabled). When enabled it equals
// the solver's Derivations counter.
func (r *Result) NumProvenanceFacts() int {
	if r.s.prov == nil {
		return 0
	}
	return r.s.prov.len()
}

// WitnessStepKind classifies one step of a derivation witness.
type WitnessStepKind uint8

const (
	// WitnessAlloc is the allocation site the witness object was born
	// at — always the first step.
	WitnessAlloc WitnessStepKind = iota
	// WitnessVar is a (variable, context) node the object flowed
	// through.
	WitnessVar
	// WitnessField is a (heap object, field) cell the object flowed
	// through; Heap names the base object's allocation site.
	WitnessField
	// WitnessStatic is a static-field cell the object flowed through.
	WitnessStatic
)

// WitnessStep is one node of a derivation witness path. The populated
// fields depend on Kind: Var/Ctx for WitnessVar, Heap+Field for
// WitnessField, Field for WitnessStatic, Heap for WitnessAlloc.
type WitnessStep struct {
	Kind  WitnessStepKind
	Var   ir.VarID
	Ctx   Ctx
	Heap  ir.HeapID
	Field ir.FieldID
}

// Witness is a reconstructed derivation path: the object (Heap, HCtx)
// and the alloc-to-use sequence of constraint-graph nodes its flow was
// first established through.
type Witness struct {
	Heap  ir.HeapID
	HCtx  HCtx
	Steps []WitnessStep
}

// describeStep renders one step against the program's symbol tables.
func describeStep(prog *ir.Program, st WitnessStep) string {
	switch st.Kind {
	case WitnessAlloc:
		return "alloc " + prog.HeapName(st.Heap)
	case WitnessField:
		return prog.HeapName(st.Heap) + "." + prog.Fields[st.Field].Name
	case WitnessStatic:
		return "static " + prog.Fields[st.Field].Name
	default:
		return prog.VarName(st.Var)
	}
}

// Strings renders the witness one step per element, alloc first.
func (w *Witness) Strings(prog *ir.Program) []string {
	out := make([]string, len(w.Steps))
	for i, st := range w.Steps {
		out[i] = describeStep(prog, st)
	}
	return out
}

// Format renders the witness as a single "a -> b -> c" line.
func (w *Witness) Format(prog *ir.Program) string {
	return strings.Join(w.Strings(prog), " -> ")
}

// explainChain walks the recorded first-derivation edges back from fact
// (n, hc) and returns the node chain in derivation order (introduction
// point first, n last). ok is false if provenance is disabled or the
// fact has no record (it was never derived).
func (r *Result) explainChain(n, hc int32) ([]int32, bool) {
	p := r.s.prov
	if p == nil || !r.s.pt[n].Has(hc) {
		return nil, false
	}
	chain := []int32{n}
	for {
		src, ok := p.source(n, hc)
		if !ok {
			return nil, false
		}
		if src == provIntro {
			break
		}
		n = src
		chain = append(chain, n)
	}
	// Reverse into alloc-to-use order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, true
}

// witnessFromChain decodes a node chain into exported steps.
func (r *Result) witnessFromChain(chain []int32, hc int32) *Witness {
	s := r.s
	w := &Witness{
		Heap:  s.hcHeap[hc],
		HCtx:  s.hcCtx[hc],
		Steps: make([]WitnessStep, 0, len(chain)+1),
	}
	w.Steps = append(w.Steps, WitnessStep{Kind: WitnessAlloc, Heap: w.Heap})
	for _, n := range chain {
		switch s.kind[n] {
		case varNode:
			w.Steps = append(w.Steps, WitnessStep{
				Kind: WitnessVar, Var: ir.VarID(s.nodeA[n]), Ctx: Ctx(s.nodeB[n]),
			})
		case fieldNode:
			w.Steps = append(w.Steps, WitnessStep{
				Kind: WitnessField, Heap: s.hcHeap[s.nodeA[n]], Field: ir.FieldID(s.nodeB[n]),
			})
		default:
			w.Steps = append(w.Steps, WitnessStep{
				Kind: WitnessStatic, Field: ir.FieldID(s.nodeA[n]),
			})
		}
	}
	return w
}

// Explain reconstructs how the fact "(v, ctx) points to hc" was first
// derived. It returns ok=false if provenance recording was disabled,
// the (v, ctx) node does not exist, or the fact does not hold.
func (r *Result) Explain(v ir.VarID, ctx Ctx, hc int32) (*Witness, bool) {
	n, ok := r.s.nodeIdx.get(nodeKey(varNode, int32(v), int32(ctx)))
	if !ok {
		return nil, false
	}
	chain, ok := r.explainChain(n, hc)
	if !ok {
		return nil, false
	}
	return r.witnessFromChain(chain, hc), true
}

// ExplainHeap reconstructs a derivation witness for "v may point to an
// object allocated at h": it picks the first (context, heap-context)
// qualified fact matching (v, h) — deterministically, in node and hc id
// order — and explains it. ok=false if provenance is disabled or v
// never points to h.
func (r *Result) ExplainHeap(v ir.VarID, h ir.HeapID) (*Witness, bool) {
	if r.s.prov == nil {
		return nil, false
	}
	for _, n := range r.s.varNodes[v] {
		found := int32(-1)
		r.s.pt[n].ForEach(func(hc int32) {
			if found < 0 && r.s.hcHeap[hc] == h {
				found = hc
			}
		})
		if found >= 0 {
			chain, ok := r.explainChain(n, found)
			if !ok {
				return nil, false
			}
			return r.witnessFromChain(chain, found), true
		}
	}
	return nil, false
}
