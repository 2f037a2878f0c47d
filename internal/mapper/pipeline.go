package mapper

// The pipelined walk (DESIGN.md §6). With more than one lane the walk
// goroutine does not canonicalize: it ships blocks of consecutive visited
// orderings to the search's lanes, which compute each ordering's signature
// and greedy bounds (every lane owns a prefix-incremental canonicalizer, and
// a block's orderings share long prefixes), and the lanes also score the
// representative batches. The walk goroutine keeps what must stay in walk
// order — interning, the exact counters and the shard class records — in
// an in-order commit of the finished blocks, so the emitted (seq, nest)
// stream, every exact Stats counter and the class records are the serial
// walk's. Whenever the walk goroutine would block (a full channel, the
// oldest block still in a lane) it runs lane work itself, so the search
// never holds a core idle.

import (
	"sync"

	"repro/internal/loops"
)

// blockSize is how many consecutive visited orderings one canonicalization
// block carries, and blocksPerLane how many blocks may be in flight per
// lane before the walk commits the oldest: enough to keep every lane busy
// while the walk goroutine commits, few enough to bound the memory held.
// queuePerLane is the lane queue's depth per lane (startLanes).
const (
	blockSize     = 128
	blocksPerLane = 2
	queuePerLane  = 4
)

// laneTask is one unit of lane work: canonicalize a block or score a batch.
type laneTask struct {
	blk *visitBlock
	bt  *jobBatch
}

// visitBlock is a run of consecutive visited orderings. The walk fills
// seqs/ends/slab; a lane fills sigs/sigEnds/oks/bslab and then signals done.
type visitBlock struct {
	seqs    []int64
	ends    []int // nest i is slab[ends[i-1]:ends[i]]
	slab    []loops.Loop
	sigs    []byte
	sigEnds []int  // signature i is sigs[sigEnds[i-1]:sigEnds[i]]
	oks     []bool // greedy bounds succeeded
	bslab   []int  // ordering i's bounds at i*nb (oks[i] only)
	done    chan struct{}
}

var blockPool = sync.Pool{New: func() any { return &visitBlock{done: make(chan struct{}, 1)} }}

func (b *visitBlock) nest(i int) loops.Nest {
	lo := 0
	if i > 0 {
		lo = b.ends[i-1]
	}
	return loops.Nest(b.slab[lo:b.ends[i]])
}

func (b *visitBlock) sig(i int) []byte {
	lo := 0
	if i > 0 {
		lo = b.sigEnds[i-1]
	}
	return b.sigs[lo:b.sigEnds[i]]
}

// canonicalize fills the block's signatures and bounds with c.
func (b *visitBlock) canonicalize(c *canonicalizer, nb int) {
	b.sigs, b.sigEnds, b.oks = b.sigs[:0], b.sigEnds[:0], b.oks[:0]
	if need := len(b.seqs) * nb; cap(b.bslab) < need {
		b.bslab = make([]int, need)
	} else {
		b.bslab = b.bslab[:need]
	}
	for i := range b.seqs {
		var ok bool
		b.sigs, ok = c.appendSignature(b.sigs, b.nest(i))
		b.sigEnds = append(b.sigEnds, len(b.sigs))
		b.oks = append(b.oks, ok)
		if ok {
			off := i * nb
			for _, op := range loops.AllOperands {
				off += copy(b.bslab[off:], c.m.Bound[op])
			}
		}
	}
}

// lanes is the search's worker pool: ws[1:] run on their own goroutines,
// ws[0] is the walk goroutine's own lane, used whenever it helps.
type lanes struct {
	e  *engine
	ws []*worker
	ch chan laneTask
	wg sync.WaitGroup
	nb int // bound slots per ordering: the summed chain lengths
}

func startLanes(e *engine, ws []*worker) *lanes {
	// When the queue is full the walk goroutine runs a queued task itself
	// instead of waiting. A few tasks per lane stay queued behind the one it
	// takes, so the other lanes keep working until it is back to walking.
	p := &lanes{e: e, ws: ws, ch: make(chan laneTask, queuePerLane*len(ws))}
	for _, op := range loops.AllOperands {
		p.nb += len(ws[0].s.chains[op])
	}
	for _, w := range ws[1:] {
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			for t := range p.ch {
				p.do(w, t)
			}
		}(w)
	}
	return p
}

// run executes the walk-goroutine body, then shuts the pool down: the walk
// goroutine works off whatever is still queued and joins the lanes. A panic
// in body is recorded as the search's failure; the lanes still drain.
func (p *lanes) run(body func()) {
	p.e.recoverInto(body)
	close(p.ch)
	for t := range p.ch {
		p.do(p.ws[0], t)
	}
	p.wg.Wait()
}

// do runs one task on w's lane. A panic ends the task, not the process: it
// is recorded as the search's failure (which aborts the rest), and a block
// still signals done so the walk goroutine never waits on it forever.
func (p *lanes) do(w *worker, t laneTask) {
	defer func() {
		if r := recover(); r != nil {
			p.e.fail(r)
		}
		if t.blk != nil {
			t.blk.done <- struct{}{}
		}
	}()
	switch {
	case t.blk != nil:
		if !p.e.aborted.Load() {
			t.blk.canonicalize(&w.s.canon, p.nb)
		}
	case t.bt != nil:
		w.score(t.bt)
		batchPool.Put(t.bt)
	}
}

// submit queues t, running queued lane work on the walk goroutine while the
// channel is full.
func (p *lanes) submit(t laneTask) {
	for {
		select {
		case p.ch <- t:
			return
		default:
		}
		select {
		case p.ch <- t:
			return
		case h := <-p.ch:
			p.do(p.ws[0], h)
		}
	}
}

// await waits for b's canonicalization, running queued lane work on the
// walk goroutine meanwhile.
func (p *lanes) await(b *visitBlock) {
	for {
		select {
		case <-b.done:
			return
		default:
		}
		select {
		case <-b.done:
			return
		case h := <-p.ch:
			p.do(p.ws[0], h)
		}
	}
}

// generatePipelined is generate with the canonicalization spread over the
// lanes: the walk fills blocks, the lanes canonicalize them, and the walk
// goroutine commits finished blocks strictly in walk order — interning,
// counting and emitting exactly what generate would, in the same order.
func (e *engine) generatePipelined(st *Stats, p *lanes, emit func(j job)) {
	var pending []*visitBlock // dispatched, not yet committed, in walk order
	var cur *visitBlock
	commitOldest := func() {
		b := pending[0]
		pending = pending[1:]
		p.await(b)
		if e.aborted.Load() {
			return
		}
		for i := range b.seqs {
			j := job{seq: b.seqs[i], nest: b.nest(i), bstate: boundsFailed}
			if b.oks[i] {
				j.bstate = boundsReady
				off := i * p.nb
				for _, op := range loops.AllOperands {
					n := len(p.ws[0].s.chains[op])
					j.bnd[op] = b.bslab[off : off+n : off+n]
					off += n
				}
			}
			e.commit(st, b.sig(i), j, emit)
		}
		blockPool.Put(b)
	}
	dispatch := func() {
		for len(pending) >= blocksPerLane*len(p.ws) {
			commitOldest()
		}
		pending = append(pending, cur)
		p.submit(laneTask{blk: cur})
		cur = nil
	}
	e.walk(st, &p.ws[0].s.canon, func(seq int64, nest loops.Nest) {
		if cur == nil {
			cur = blockPool.Get().(*visitBlock)
			cur.seqs, cur.ends, cur.slab = cur.seqs[:0], cur.ends[:0], cur.slab[:0]
		}
		cur.seqs = append(cur.seqs, seq)
		cur.slab = append(cur.slab, nest...)
		cur.ends = append(cur.ends, len(cur.slab))
		if len(cur.seqs) == blockSize {
			dispatch()
		}
	})
	if cur != nil {
		dispatch()
	}
	for len(pending) > 0 && !e.aborted.Load() {
		commitOldest()
	}
}
