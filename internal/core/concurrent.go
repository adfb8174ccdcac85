package core

import (
	"time"

	"repro/internal/vmheap"
)

// Cycle scheduling (Config.IncrementalBudget > 0).
//
// The pacer decides when an incremental full collection opens, advances and
// completes, and is the only owner of "a cycle is open": every transition of
// the collector's cycle (StartFull / StepMark / FinishFull) goes through
// openLocked / stepLocked / finishLocked here, so the growth ledger, the
// cycle count and the retrigger baseline cannot drift from the collector's
// state (pacer.active == collector.IncrementalActive(), checked under
// SetDebugChecks). Every transition runs under rt.mu, or with no lock at all
// while the runtime has one mutator. Who asks for one:
//
//   - Trigger: a cycle opens when used words cross defaultGCTrigger (half)
//     of capacity and the heap has meaningfully grown since the previous
//     cycle (re-collecting a heap that is large but idle would spin). The
//     check runs in the allocation slow path — the path that causes the
//     growth.
//
//   - Assists: a mutator entering the allocation slow path while a cycle
//     is open pays mark work proportional to the heap growth its
//     allocation causes. When growth would exceed the hard cap (trigger ×
//     slack × capacity, defaultAssistSlack) the assist completes the
//     cycle instead, so mid-cycle heap growth is bounded by construction:
//     the check and the allocation happen under one rt.mu hold, making the
//     bound exact however many mutator threads run.
//
//   - Forced transitions: StartGC, GCStep and FinishGC open, advance and
//     complete a cycle by hand, and every operation that needs the heap
//     between cycles — GC, Collect, assertion registration, heap
//     exhaustion, Close — completes an open one first (settleCycleLocked).
//
//   - Config.ConcurrentGC adds a background goroutine that polls the
//     trigger and marks in IncrementalBudget-sized slices, taking and
//     releasing rt.mu around each so a mutator only ever waits out one
//     slice, never a cycle. It also makes the runtime shared from the start
//     (rt.share); nothing else differs.
//
// A HaltError from a cycle that completed inside an assist or on the
// goroutine has no caller to return to; it is stashed in pending and the
// next allocation slow path or explicit entry point returns it.
const (
	// defaultGCTrigger: a cycle starts when used words exceed this
	// fraction of heap capacity.
	defaultGCTrigger = 0.5
	// defaultAssistSlack: mid-cycle heap growth is capped at this fraction
	// of the trigger threshold.
	defaultAssistSlack = 0.5
	// defaultConcurrentBudget is the mark-slice size (objects) when
	// ConcurrentGC is on and Config.IncrementalBudget is 0.
	defaultConcurrentBudget = 512
	// pacerPollInterval bounds how stale the background trigger check can go
	// when no allocation wakes the goroutine.
	pacerPollInterval = 500 * time.Microsecond
	// backgroundSlicesPerDrive bounds the slices one wakeup runs, each
	// under its own rt.mu hold, before the goroutine re-blocks.
	backgroundSlicesPerDrive = 8
	// maxAssistSlices bounds the mark slices one assist runs, so an
	// allocation's worst case is a handful of bounded slices, not a drain.
	maxAssistSlices = 4
	// carveSlackWords pads the assist growth check: a carve or allocation
	// may absorb a remainder smaller than the minimum chunk, so the
	// pre-allocation bound must leave room for that rounding.
	carveSlackWords = 16
)

// PacerStats counts cycle-scheduler activity (Snapshot.Pacer). All zero
// unless Config.IncrementalBudget > 0.
type PacerStats struct {
	Triggers            uint64 // cycles started by the trigger check
	Cycles              uint64 // cycles completed
	Assists             uint64 // allocation slow paths that paid mark work
	AssistSlices        uint64 // mark slices run inside assists
	BackgroundSlices    uint64 // mark slices run by the pacer goroutine
	ForcedFinishes      uint64 // assists that hit the growth cap and completed the cycle
	MaxCycleGrowthWords uint64 // largest heap growth observed during any cycle
	GrowthCapWords      uint64 // the cap MaxCycleGrowthWords never exceeds
}

// gcPacer is the cycle scheduler. The channels are fixed at construction;
// everything else is guarded by rt.mu (or the single-mutator contract).
type gcPacer struct {
	rt           *Runtime
	triggerWords uint64 // used-words threshold that starts a cycle
	capWords     uint64 // mid-cycle growth hard cap

	// The background goroutine's channels (startBackground); nil without it.
	quit chan struct{} // closed by Close to stop run
	wake chan struct{} // buffered(1); nudged by the allocation slow path
	done chan struct{} // closed when run exits

	// Guarded by rt.mu.
	active    bool   // a cycle is open
	startFree uint64 // FreeWords at cycle start (buffers flushed, so exact)
	startWork uint64 // LiveObjects at cycle start: the assist work estimate
	floorFree uint64 // FreeWords after the last cycle (retrigger baseline)
	pending   error  // HaltError from a cycle that completed with no caller
	closed    bool
	stats     PacerStats
}

// newPacer sizes the trigger and growth cap from the heap capacity.
// trigger/slack of 0 take the defaults; only tests pass anything else.
func newPacer(rt *Runtime, trigger, slack float64) *gcPacer {
	if trigger == 0 {
		trigger = defaultGCTrigger
	}
	if slack == 0 {
		slack = defaultAssistSlack
	}
	capacity := float64(rt.heap.CapacityWords())
	p := &gcPacer{
		rt:           rt,
		triggerWords: uint64(trigger * capacity),
		capWords:     uint64(trigger * slack * capacity),
	}
	// Floor the cap so tiny heaps still make forward progress between
	// forced finishes (a cap below one carve would finish a cycle on
	// every slow-path allocation).
	if p.capWords < 4*carveSlackWords {
		p.capWords = 4 * carveSlackWords
	}
	p.stats.GrowthCapWords = p.capWords
	return p
}

// startBackground starts the pacer goroutine (Config.ConcurrentGC); Close
// stops it.
func (p *gcPacer) startBackground() {
	p.quit = make(chan struct{})
	p.wake = make(chan struct{}, 1)
	p.done = make(chan struct{})
	go p.run()
}

// run is the pacer goroutine: wake on an allocation nudge or the poll
// tick, drive, repeat until Close.
func (p *gcPacer) run() {
	defer close(p.done)
	tick := time.NewTicker(pacerPollInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
		case <-tick.C:
		}
		p.drive()
	}
}

// drive runs up to backgroundSlicesPerDrive units of pacer work, taking
// and releasing rt.mu around each so mutators interleave.
func (p *gcPacer) drive() {
	for i := 0; i < backgroundSlicesPerDrive; i++ {
		p.rt.mu.Lock()
		if p.closed {
			p.rt.mu.Unlock()
			return
		}
		progress := true
		if p.active {
			p.stepLocked()
			p.stats.BackgroundSlices++
		} else {
			progress = p.triggerLocked()
		}
		p.rt.mu.Unlock()
		if !progress {
			return
		}
	}
}

// maybeWake nudges the pacer goroutine without blocking; the allocation slow
// path calls it so a burst is noticed before the next poll tick. Without the
// goroutine the channel is nil and the send is never ready.
func (p *gcPacer) maybeWake() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// minRetrigger is the heap growth required since the last cycle before
// the trigger may fire again.
func (p *gcPacer) minRetrigger() uint64 {
	if m := p.capWords / 4; m > 64 {
		return m
	}
	return 64
}

// triggerLocked is the trigger check: it opens a cycle when occupancy has
// crossed the threshold and grown since the last cycle, and reports whether
// it did. The one place that decides a cycle is due. Caller holds rt.mu.
func (p *gcPacer) triggerLocked() bool {
	if p.active || p.pending != nil {
		return false
	}
	h := p.rt.heap
	used := h.CapacityWords() - h.FreeWords()
	if used < p.triggerWords {
		return false
	}
	if p.floorFree > 0 && h.FreeWords()+p.minRetrigger() > p.floorFree {
		// Over the threshold but not growing: a live heap this size is
		// the program's steady state, and re-collecting it would spin.
		return false
	}
	p.rt.flushAllocBuffers()
	used = h.CapacityWords() - h.FreeWords()
	if used < p.triggerWords {
		return false // retired buffer tails brought occupancy back under
	}
	p.rt.tele.Trigger(used, p.triggerWords)
	p.stats.Triggers++
	p.openLocked()
	return true
}

// openLocked opens a cycle (a no-op if one is open) and starts its growth
// ledger. Buffers are retired before the snapshot root scan: retiring every
// buffer closes the bump path (the next allocation needs rt.mu), so every
// frame slot a bump allocation wrote is visible to the scan. Caller holds
// rt.mu.
func (p *gcPacer) openLocked() {
	if p.active {
		return
	}
	p.rt.flushAllocBuffers()
	p.rt.collector.StartFull()
	p.active = true
	p.startFree = p.rt.heap.FreeWords()
	p.startWork = p.rt.heap.LiveObjects()
}

// stepLocked advances the open cycle by one bounded mark slice, completing it
// when the worklist drains, and reports whether it completed. Caller holds
// rt.mu with a cycle open.
func (p *gcPacer) stepLocked() bool {
	done := p.rt.collector.StepMark()
	if done {
		p.finishLocked()
	}
	return done
}

// growthLocked measures heap growth since the cycle started (active
// buffers count in full from their carve, which only overstates) and
// records the running maximum. Caller holds rt.mu with a cycle active.
func (p *gcPacer) growthLocked() uint64 {
	free := p.rt.heap.FreeWords()
	if free >= p.startFree {
		return 0
	}
	g := p.startFree - free
	if g > p.stats.MaxCycleGrowthWords {
		p.stats.MaxCycleGrowthWords = g
	}
	return g
}

// finishLocked completes the open cycle: growth is recorded before the
// sweep resets it, buffers are retired (the sweep parses the arena), and a
// HaltError is stashed in pending — the background goroutine and the
// allocation that hit the growth cap have no caller to return it to, and a
// forced finish takes it straight back out. Caller holds rt.mu.
func (p *gcPacer) finishLocked() {
	p.growthLocked()
	p.rt.flushAllocBuffers()
	if err := p.rt.collector.FinishFull(); err != nil {
		p.pending = err
	}
	p.active = false
	p.floorFree = p.rt.heap.FreeWords()
	p.stats.Cycles++
}

// allocPacingLocked is the allocation slow path's pacing hook: open a cycle
// if the trigger has been crossed, then pay the assist tax for the need words
// the allocation is about to consume. A no-op after Close: the quiesced
// runtime schedules no new cycles. Caller holds rt.mu.
func (p *gcPacer) allocPacingLocked(need uint64) {
	if p.closed {
		return
	}
	if !p.active {
		p.triggerLocked()
	}
	p.assistLocked(need)
}

// assistLocked is the mutator tax, called from the allocation slow path
// before the allocation with the words it is about to consume (object or
// buffer carve). The proportional schedule: by the time the heap has
// grown by G of the allowed capWords, the cycle must have marked G/cap of
// the estimated total work, so marking provably finishes before the cap
// unless the estimate was low — in which case the hard-cap branch
// completes the cycle in one (bounded, sweep-arm) pause. Caller holds
// rt.mu.
func (p *gcPacer) assistLocked(need uint64) {
	if !p.active {
		return
	}
	growth := p.growthLocked()
	if growth+need+carveSlackWords > p.capWords {
		// Completing the cycle is the only way to respect the cap: the
		// sweep ends growth accounting and replenishes free space.
		p.stats.ForcedFinishes++
		p.finishLocked()
		return
	}
	required := uint64(float64(p.startWork) * float64(growth+need) / float64(p.capWords))
	if p.rt.collector.CycleMarked() >= required {
		return
	}
	begin := time.Now()
	var slices uint64
	for slices < maxAssistSlices {
		slices++
		if p.stepLocked() || p.rt.collector.CycleMarked() >= required {
			break
		}
	}
	p.stats.Assists++
	p.stats.AssistSlices += slices
	p.rt.tele.Assist(time.Since(begin), slices)
}

// cycleOpen reports whether an incremental cycle is in flight — never, on a
// stop-the-world runtime. Caller holds rt.mu.
func (rt *Runtime) cycleOpen() bool {
	p := rt.pacer
	if p == nil {
		return false
	}
	if vmheap.DebugChecks && p.active != rt.collector.IncrementalActive() {
		panic("core: the pacer and the collector disagree on whether a cycle is open")
	}
	return p.active
}

// takePacerPending consumes the stashed HaltError. Caller holds rt.mu; a
// no-op returning nil on a stop-the-world runtime.
func (rt *Runtime) takePacerPending() error {
	p := rt.pacer
	if p == nil {
		return nil
	}
	err := p.pending
	p.pending = nil
	return err
}

// settleCycleLocked completes an open cycle and surfaces the stashed
// HaltError, its own or an earlier one: what every operation that needs the
// heap between cycles does first. Caller holds rt.mu; a no-op on a
// stop-the-world runtime.
func (rt *Runtime) settleCycleLocked() error {
	if rt.cycleOpen() {
		rt.pacer.finishLocked()
	}
	return rt.takePacerPending()
}

// Close stops the scheduler: the background goroutine exits, any open cycle
// is completed and its result returned (including a HaltError stashed from
// an earlier cycle), and no further cycle is triggered. Mutator threads must
// have quiesced; the runtime then behaves exactly like its stop-the-world
// equivalent — explicit GC calls, stats, and assertion checks all remain
// usable. Safe to call more than once; a no-op returning nil on a
// stop-the-world runtime.
func (rt *Runtime) Close() error {
	p := rt.pacer
	if p == nil {
		return nil
	}
	rt.mu.Lock()
	already := p.closed
	p.closed = true
	rt.mu.Unlock()
	if p.quit != nil {
		if !already {
			close(p.quit)
		}
		<-p.done
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.settleCycleLocked()
}
