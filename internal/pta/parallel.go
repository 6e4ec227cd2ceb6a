// Parallel intra-solve: a sharded worklist over a partitioned
// constraint graph.
//
// The solve alternates two phases in lockstep rounds (a
// bulk-synchronous design):
//
//   - a serial CONTROL phase — the only phase that generates
//     constraints. It drains the pending-method queue and the use
//     events the shards handed back (receiver dispatch, field
//     load/store expansion), so every interning table, policy call,
//     successor list, and call-graph structure is mutated
//     single-threaded, exactly as in the serial solver.
//
//   - a parallel DATA phase — one goroutine per shard, each owning a
//     disjoint slice of the constraint nodes. A shard propagates
//     points-to deltas with the same word-level kernels as the serial
//     path: edges whose destination it owns are applied directly;
//     facts crossing a shard boundary are ORed into a per-destination
//     outbox set (bits.OrDiffMasked) and merged by the owning shard
//     next round. Shards share no mutable state — each touches only
//     the pt/delta/length entries of its own nodes — so the phase
//     needs no locks at all; the phase boundary (WaitGroup barrier)
//     is the only synchronization.
//
// Determinism: every run with the same Options.Workers produces the
// same Result, including the work counters, independent of GOMAXPROCS
// and scheduling. Shard assignment is a pure function of the program
// (partition.go); within a shard, items are processed in a fixed order
// (deferred edges FIFO, inbox FIFO in sender-shard order, worklist
// LIFO — mirroring the serial stack); and the barrier merges shard
// counters, rotates mailboxes, and concatenates use events in shard-id
// order. Nothing observable depends on which shard's goroutine ran
// first. Work totals still differ from the serial schedule's (see
// DESIGN §5.7): the schedule-independent Derivations and Propagations
// counters are the cross-mode equality gates.
package pta

import (
	"sync"

	"introspect/internal/bits"
	"introspect/internal/ir"
)

// parEdge is a constraint edge whose install-time propagation
// (src's already-flushed facts) was deferred to the next data phase of
// the shard owning src.
type parEdge struct {
	src, dst int32
	filter   ir.TypeID
}

// parEvent hands one flushed delta batch of a node with registered
// load/store/call uses back to the control phase, which owns dispatch
// and edge creation. Ownership of the set moves with the event; the
// control phase recycles it into the origin shard's spare pool.
type parEvent struct {
	n int32
	d bits.Set
}

// outMsg accumulates one round's boundary facts for a single remote
// destination node.
type outMsg struct {
	n   int32
	set bits.Set
}

// inMsg is an outMsg after barrier rotation, tagged with the sending
// shard so merge order and set recycling are per-sender.
type inMsg struct {
	n    int32
	from int32
	set  bits.Set
}

type parShard struct {
	id int

	// wl is the shard-local worklist over owned nodes (LIFO, like the
	// serial solver's).
	wl []int32

	// newEdges queues deferred install-time propagations; neNext is
	// the consumed prefix, preserved across rounds when the round work
	// cap stops a shard mid-queue.
	newEdges []parEdge
	neNext   int

	// out[j] is the outbox destined for shard j this round, one entry
	// per destination node (outIdx deduplicates so repeated sends to
	// one node accumulate into one set).
	out    [][]outMsg
	outIdx []map[int32]int32
	// sets recycles outbox set storage (returned by the barrier once
	// the receiver has merged them).
	sets []bits.Set

	// in is the inbox: rotated-in outboxes of every shard, in
	// sender-shard order. inNext is the consumed prefix.
	in     []inMsg
	inNext int
	// retire[j] collects consumed inbox sets owned by sender j; the
	// barrier returns them to j's pool. Receivers never touch another
	// shard's pool directly — that would race with the sender.
	retire [][]bits.Set

	// events queues flushed deltas of nodes with registered uses for
	// the next control phase.
	events []parEvent

	// spares is the shard-local delta pool.
	spares deltaPool
	// filters is a shard-local filter-verdict cache (same contents as
	// solver.filters eventually, duplicated to stay lock-free).
	filters map[ir.TypeID]*filterCache

	// Per-round counters, merged into the solver's at the barrier in
	// shard-id order.
	tally
	pops   int64
	ctxErr error
}

// parRuntime is the per-solve state of the parallel mode; solver.par
// is nil for serial solves (the one flag check the serial hot path
// pays, same discipline as the provenance and snapshot hooks).
type parRuntime struct {
	w       int
	part    *partition
	shardOf []uint8 // node id → owning shard, appended by node()
	shards  []parShard

	// events is the control phase's input queue: shard event batches
	// concatenated in shard order at the barrier.
	events []parEvent
	evNext int

	round int64
}

func newParRuntime(prog *ir.Program, w int) *parRuntime {
	par := &parRuntime{
		w:      w,
		part:   newPartition(prog, w),
		shards: make([]parShard, w),
	}
	for i := range par.shards {
		sh := &par.shards[i]
		sh.id = i
		sh.out = make([][]outMsg, w)
		sh.outIdx = make([]map[int32]int32, w)
		sh.retire = make([][]bits.Set, w)
		for j := 0; j < w; j++ {
			sh.outIdx[j] = make(map[int32]int32)
		}
		sh.filters = make(map[ir.TypeID]*filterCache)
	}
	return par
}

// runParallel is the parallel analogue of run().
func (s *solver) runParallel() {
	for _, e := range s.prog.Entries {
		s.reach(e, EmptyCtx)
	}
	for {
		if !s.controlPhase() {
			return
		}
		if !s.hasShardWork() {
			return // least fixpoint: no methods, events, or shard work left
		}
		s.dataPhase()
		if !s.barrier() {
			return
		}
	}
}

// controlPhase drains the pending-method queue and the use events the
// shards handed back, interleaved the same way the serial loop
// interleaves pendingMC with worklist pops: newly reached methods are
// always processed before the next event. Returns false on budget
// exhaustion or cancellation.
func (s *solver) controlPhase() bool {
	par := s.par
	for {
		if s.interrupted() {
			return false
		}
		if n := len(s.pendingMC); n > 0 {
			mc := s.pendingMC[n-1]
			s.pendingMC = s.pendingMC[:n-1]
			s.processMethod(mc)
			continue
		}
		if par.evNext < len(par.events) {
			ev := par.events[par.evNext]
			par.events[par.evNext] = parEvent{}
			par.evNext++
			s.processUses(ev.n, &ev.d)
			par.shards[par.shardOf[ev.n]].spares.put(ev.d)
			continue
		}
		par.events = par.events[:0]
		par.evNext = 0
		return true
	}
}

// hasShardWork reports whether any shard still has pending deferred
// edges, inbox messages, or worklist entries.
func (s *solver) hasShardWork() bool {
	for i := range s.par.shards {
		sh := &s.par.shards[i]
		if len(sh.wl) > 0 || sh.neNext < len(sh.newEdges) || sh.inNext < len(sh.in) {
			return true
		}
	}
	return false
}

// dataPhase runs one round: every shard drains its deferred edges,
// inbox, and worklist concurrently, up to a per-shard work cap.
//
// The cap divides the remaining global budget evenly: with cap =
// max(1, remaining/W) the round's total overshoot is bounded by
// remaining (each shard stops within one item of its slice), so a
// budget-capped parallel run stops within roughly one budget of the
// limit instead of W times it. The max(1, …) keeps a nearly exhausted
// budget from starving shards into a livelock: every shard always
// completes at least one item per round, so either work grows past the
// budget (caught at the barrier) or the solve finishes.
func (s *solver) dataPhase() {
	cap := int64(1)
	if remaining := s.budget - s.work; remaining > int64(s.par.w) {
		cap = remaining / int64(s.par.w)
	}
	var wg sync.WaitGroup
	for i := range s.par.shards {
		wg.Add(1)
		go func(sh *parShard) {
			defer wg.Done()
			s.shardRound(sh, cap)
		}(&s.par.shards[i])
	}
	wg.Wait()
}

// shardRound processes one shard's work for one round, in the fixed
// order deferred edges → inbox merges → worklist flushes. The order
// matters for the exactly-once propagation argument: a deferred edge's
// pt-minus-delta scan must run before any flush of the same shard can
// retire delta elements the scan is counting on seeing later.
func (s *solver) shardRound(sh *parShard, cap int64) {
	stop := func() bool {
		if sh.work >= cap {
			return true
		}
		sh.pops++
		if sh.pops&(checkCtxEvery-1) == 0 {
			if err := s.ctx.Err(); err != nil {
				sh.ctxErr = err
				return true
			}
		}
		return false
	}
	for sh.neNext < len(sh.newEdges) {
		if stop() {
			return
		}
		e := sh.newEdges[sh.neNext]
		sh.neNext++
		s.shardNewEdge(sh, e)
	}
	sh.newEdges = sh.newEdges[:0]
	sh.neNext = 0
	for sh.inNext < len(sh.in) {
		if stop() {
			return
		}
		msg := sh.in[sh.inNext]
		sh.in[sh.inNext] = inMsg{}
		sh.inNext++
		s.shardMerge(sh, msg)
	}
	sh.in = sh.in[:0]
	sh.inNext = 0
	for len(sh.wl) > 0 {
		if stop() {
			return
		}
		n := sh.wl[len(sh.wl)-1]
		sh.wl = sh.wl[:len(sh.wl)-1]
		s.inWL[n] = false
		s.shardFlush(sh, n)
	}
}

// shardNewEdge performs the install-time propagation addEdge deferred:
// src's already-flushed facts (pt minus delta) cross the new edge.
// Work accounting matches the serial install scan exactly — one unit
// per scanned element plus one per new fact.
func (s *solver) shardNewEdge(sh *parShard, e parEdge) {
	mask := s.filterMask(sh.filters, e.filter, &s.pt[e.src])
	sh.propagate(s, e.dst, &s.pt[e.src], &s.delta[e.src], mask, e.src)
}

// shardMerge applies one inbox message: facts another shard propagated
// toward an owned node. The newly added count is charged as derivation
// work here, by the owner — the sender already charged the scan. The
// message merges facts from every sender-side source of the round, so
// there is no single source node to record; that is why provenance
// requires a serial solve.
func (s *solver) shardMerge(sh *parShard, msg inMsg) {
	if added, _ := s.pt[msg.n].UnionWords(&msg.set, nil, nil, &s.delta[msg.n], nil); added > 0 {
		s.ptLen[msg.n] += int32(added)
		s.deltaLen[msg.n] += int32(added)
		sh.work += int64(added)
		sh.derivations += int64(added)
		sh.push(s, msg.n)
	}
	sh.retire[msg.from] = append(sh.retire[msg.from], msg.set)
}

// shardFlush is processNode's data-phase twin: flush n's delta across
// its successors (directly when the destination is owned, into an
// outbox otherwise), then hand the batch to the control phase if n has
// registered uses.
func (s *solver) shardFlush(sh *parShard, n int32) {
	empty := s.deltaLen[n] == 0
	d := sh.spares.take(s, n)
	if empty {
		sh.spares.put(d)
		return
	}
	for _, e := range s.succs[n] {
		sh.propagate(s, e.dst, &d, nil, s.filterMask(sh.filters, e.filter, &d), n)
	}
	if s.kind[n] == varNode &&
		len(s.loadUses[n])+len(s.storeUses[n])+len(s.callUses[n]) > 0 {
		sh.events = append(sh.events, parEvent{n: n, d: d})
		return
	}
	sh.spares.put(d)
}

// propagate moves src (minus skip, within mask) toward node dst: with
// solver.flow when the shard owns dst, otherwise into dst's outbox set,
// charging the scan now and leaving the new-fact charge to the owner's
// merge.
func (sh *parShard) propagate(s *solver, dst int32, src, skip, mask *bits.Set, from int32) {
	if int(s.par.shardOf[dst]) == sh.id {
		s.flow(&sh.tally, dst, src, skip, mask, from)
		return
	}
	scanned := sh.outboxSet(int(s.par.shardOf[dst]), dst).OrDiffMasked(src, skip, mask)
	sh.work += int64(scanned)
	sh.propagations += int64(scanned)
}

// push queues an owned node on the shard's local worklist. Only the
// owner calls this during a data phase; the control phase routes
// through solver.push, which dispatches here.
func (sh *parShard) push(s *solver, n int32) {
	if !s.inWL[n] {
		s.inWL[n] = true
		sh.wl = append(sh.wl, n)
	}
}

// outboxSet returns the accumulation set for facts bound to node n on
// shard dst, creating (or recycling) one on first use this round. The
// returned pointer is used for a single OR and not retained: the next
// outboxSet call may grow the backing slice.
func (sh *parShard) outboxSet(dst int, n int32) *bits.Set {
	idx := sh.outIdx[dst]
	if i, ok := idx[n]; ok {
		return &sh.out[dst][i].set
	}
	var set bits.Set
	if k := len(sh.sets); k > 0 {
		set = sh.sets[k-1]
		sh.sets = sh.sets[:k-1]
	}
	sh.out[dst] = append(sh.out[dst], outMsg{n: n, set: set})
	idx[n] = int32(len(sh.out[dst]) - 1)
	return &sh.out[dst][len(sh.out[dst])-1].set
}

// barrier is the single-threaded round boundary: merge shard counters,
// rotate outboxes into inboxes, return retired sets to their owners,
// collect use events, and fire the budget/cancellation/observer checks
// — all in shard-id order, so every run merges identically. Returns
// false when the solve must stop.
func (s *solver) barrier() bool {
	par := s.par
	par.round++
	for i := range par.shards {
		sh := &par.shards[i]
		s.work += sh.work
		s.derivations += sh.derivations
		s.propagations += sh.propagations
		s.popCount += int(sh.pops)
		sh.tally, sh.pops = tally{}, 0
		if sh.ctxErr != nil && s.ctxErr == nil {
			s.ctxErr = sh.ctxErr
		}
	}
	for i := range par.shards {
		src := &par.shards[i]
		for j := range par.shards {
			if len(src.out[j]) == 0 {
				continue
			}
			dst := &par.shards[j]
			for _, m := range src.out[j] {
				dst.in = append(dst.in, inMsg{n: m.n, from: int32(i), set: m.set})
			}
			src.out[j] = src.out[j][:0]
			clear(src.outIdx[j])
		}
	}
	for i := range par.shards {
		rcv := &par.shards[i]
		for j := range rcv.retire {
			for _, set := range rcv.retire[j] {
				set.Clear()
				par.shards[j].sets = append(par.shards[j].sets, set)
			}
			rcv.retire[j] = rcv.retire[j][:0]
		}
	}
	for i := range par.shards {
		sh := &par.shards[i]
		par.events = append(par.events, sh.events...)
		sh.events = sh.events[:0]
	}
	if s.ctxErr != nil {
		return false
	}
	if s.work > s.budget {
		s.exceeded = true
		return false
	}
	// The snapshot hook fires here, between phases: the contract that
	// Snapshot callbacks never run concurrently with each other or
	// with shard goroutines is what keeps the analysis layer's
	// Observer requirements unchanged in parallel mode.
	if s.snapshot != nil && s.work-s.lastSnap >= s.snapEvery {
		s.lastSnap = s.work
		s.snapshot(s.takeSnapshot())
	}
	return true
}
