//! The streaming-multiprocessor cycle loop.

use crate::config::SmConfig;
use crate::domain::{flags_of, mask_of, DomainId, DomainLayout, DomainMask, NUM_DOMAINS};
use crate::exec::ExecUnits;
use crate::gate_iface::{CycleObservation, GateTransition, GatingReport, PowerGating};
use crate::gpu::LaunchConfig;
use crate::mem::MemorySubsystem;
use crate::probe::{Event as ProbeEvent, Recorder};
use crate::sanitize::Sanitizer;
use crate::sched::{IssueCtx, WarpScheduler, SLOTS};
use crate::stats::SimStats;
use crate::timeq::TimeQ;
use crate::trace::{CycleObserver, CycleSample, NullObserver, SpanSample};
use crate::warp::{NextMeta, Warp, WarpClass, WarpId, WarpSlot};
use crate::DecodedProgram;
use warped_isa::{Instruction, Kernel, MemSpace, Opcode, Reg, UnitType};

/// Occupancy of the LD/ST pipeline per memory instruction, in cycles
/// (address generation and coalescing window).
const LDST_PIPE_OCCUPANCY: u32 = 4;

/// Cycles the event wheel must cover: the longest delay [`Sm::schedule`]
/// can receive — a global load's worst case, the shared-memory latency,
/// the kernel's longest pipeline latency, or the LD/ST pipe occupancy —
/// plus 64 cycles of slack.
fn event_horizon(mem: &MemorySubsystem, kernel: &Kernel) -> usize {
    let longest = kernel
        .iter()
        .map(Instruction::latency)
        .chain([
            mem.worst_case_latency(),
            mem.shared_latency(),
            LDST_PIPE_OCCUPANCY,
        ])
        .max()
        .unwrap_or(LDST_PIPE_OCCUPANCY);
    longest as usize + 64
}

/// What a slot is indexed under in the maintained bitmaps and counters:
/// its warp's cached class and the decode of its next instruction. The
/// index entries are a pure function of this pair, so a reclassify that
/// leaves it unchanged leaves the index as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Indexed {
    class: WarpClass,
    meta: Option<NextMeta>,
}

impl Indexed {
    /// The entry of a slot that contributes nothing (vacant, or between
    /// [`Sm::unindex_slot`] and [`Sm::index_slot`]).
    const NONE: Indexed = Indexed {
        class: WarpClass::Draining,
        meta: None,
    };

    fn of(w: &Warp, program: &DecodedProgram) -> Self {
        Indexed {
            class: w.class,
            meta: w.next_meta(program),
        }
    }
}

/// An event scheduled for a future cycle.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The instruction leaves its execution pipeline (frees pipeline
    /// occupancy; the busy/idle signal the gating controller watches).
    PipeRetire { domain: DomainId },
    /// The instruction's result becomes architecturally visible: release
    /// the destination register and the warp's in-flight count.
    Complete {
        slot: WarpSlot,
        warp: WarpId,
        dst: Option<Reg>,
        frees_mshr: bool,
        /// Pipeline retired in the same instant, applied first — set
        /// when pipe occupancy and completion latency coincide (every
        /// ALU/SFU op and store), fusing what would otherwise be two
        /// adjacent same-cycle events into one scheduled event.
        retires: Option<DomainId>,
    },
}

/// The outcome of simulating one SM to completion.
#[derive(Debug)]
pub struct SmOutcome {
    /// Timing statistics.
    pub stats: SimStats,
    /// The gating controller's final counters.
    pub gating: GatingReport,
    /// Whether the run hit the configured cycle cap before finishing.
    pub timed_out: bool,
}

/// A single simulated streaming multiprocessor.
///
/// Construct with a configuration, a launch (kernel + warp grid), a
/// scheduling policy, and a power gating policy, then call [`Sm::run`].
/// See the [crate documentation](crate) for an end-to-end example.
pub struct Sm {
    config: SmConfig,
    layout: DomainLayout,
    kernel: Kernel,
    /// `kernel`'s static instructions, decoded once; warps hold indices
    /// into it.
    program: DecodedProgram,
    total_warps: u32,
    block_warps: u32,
    stagger: u32,
    warps_per_wave: u32,
    launched: u32,
    slots: Vec<Option<Warp>>,
    units: ExecUnits,
    mem: MemorySubsystem,
    scheduler: Box<dyn WarpScheduler>,
    gating: Box<dyn PowerGating>,
    /// The future-event schedule: a bounded time wheel sized in
    /// [`Sm::new`] past every delay [`Sm::schedule`] can receive.
    events: TimeQ<Event>,
    observer: Box<dyn CycleObserver>,
    /// Whether a real observer is installed. The default
    /// [`NullObserver`] ignores every sample, so the per-cycle tap
    /// (and the sample construction feeding it) is skipped entirely
    /// until [`Sm::set_observer`] is called.
    observer_enabled: bool,
    cycle: u64,
    stats: SimStats,
    /// The busy mask the per-domain accounting last saw. Busy and idle
    /// periods are integrated only when a bit flips (an issue into an
    /// idle pipe or a pipe's last retirement), not counted per cycle.
    acct_busy: DomainMask,
    /// The cycle each domain's current busy or idle period began.
    period_start: [u64; NUM_DOMAINS],
    warps_done: u64,
    /// Live (launched, unretired) warps, maintained so the done test
    /// is O(1) instead of a slot scan.
    live_warps: u32,
    /// Whether a refill could possibly succeed: set at construction and
    /// whenever a warp retires (the only edges that free a slot group
    /// or advance the wave barrier), cleared after each refill pass, so
    /// [`Sm::fill_slots`] skips its group scan on every other cycle.
    refill_hint: bool,
    /// The issue context, alive for the whole run. Its per-unit ready
    /// bitmaps are the issue candidates: slots whose warp's cached
    /// class is `Ready`, keyed by the unit of the next instruction.
    /// Like every bitmap and counter below they mirror the *cached*
    /// (possibly stale) `Warp::class` field and are updated only on the
    /// edges that touch that field: launch, the dirty-warp reclassify
    /// drain, barrier release, and retirement. Per-cycle phases then
    /// cost O(changes + issued warps), not O(resident slots), and
    /// [`IssueCtx::reset_for_cycle`] rearms only the per-cycle state.
    ctx: IssueCtx,
    /// Live warps per thread-block slot group (slot `i` belongs to
    /// group `i / block_warps`).
    group_live: Vec<u32>,
    /// Live warps per slot group whose cached class is
    /// [`WarpClass::Barrier`].
    group_barrier: Vec<u32>,
    /// Groups whose live warps all sit at a barrier (bit `g` = group
    /// `g`): the groups the next barrier release steps past it.
    releasable: u128,
    /// Slots whose warp's cached class is in the active set
    /// (`Ready` or `ActiveWaiting`); a superset of the ready slots.
    active_bits: u128,
    /// Population of `active_bits`, kept with it (a per-cycle
    /// `count_ones` is a software bit count on the default target).
    active_count: u32,
    /// Slots holding a finished-but-unretired warp that is *not* in
    /// `active_bits` — only the barrier-release path can produce one
    /// (an issue leaves the stale class `Ready`; a completion retires
    /// in the same step it lands). Blocks fast-forward exactly like
    /// the live `is_finished` scan used to.
    finished_bits: u128,
    /// Slots whose warp is marked dirty and awaits the next step's
    /// reclassify drain.
    dirty_bits: u128,
    /// Per-type active-subset occupancy (the paper's `INT_ACTV` etc.),
    /// maintained with the bitmaps. Dirty warps are drained before the
    /// counts are read, so reads always see fresh classifications.
    active_subset: [u32; 4],
    /// Per slot, the `(class, meta)` pair its index entries were built
    /// from ([`Indexed::NONE`] when it contributes nothing).
    indexed: Vec<Indexed>,
    /// Scheduler fast-forward veto memo: a veto over a span holds for
    /// the whole span (nothing the scheduler could observe changes
    /// before the event bounding it), so
    /// [`WarpScheduler::fast_forward_idle`] is consulted once per span
    /// instead of once per stepped cycle.
    veto_until: u64,
    /// Reusable buffer for power-state edges captured while
    /// fast-forwarding.
    ff_transitions: Vec<GateTransition>,
    recorder: Option<Recorder>,
    /// Gating invariant checker, present when [`SmConfig::sanitize`] is
    /// set. It rides the same sample stream as the external observer
    /// and panics at the first cycle where the controller violates one
    /// of its claimed invariants.
    sanitizer: Option<Sanitizer>,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("cycle", &self.cycle)
            .field("kernel", &self.kernel.name())
            .field("launched", &self.launched)
            .field("total_warps", &self.total_warps)
            .field("scheduler", &self.scheduler.name())
            .field("gating", &self.gating.name())
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM ready to run `launch`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the launch requests zero
    /// warps.
    #[must_use]
    pub fn new(
        config: SmConfig,
        launch: LaunchConfig,
        mut scheduler: Box<dyn WarpScheduler>,
        mut gating: Box<dyn PowerGating>,
    ) -> Self {
        config.validate();
        let (kernel, total_warps, block_warps, stagger, waves) = launch.into_parts();
        assert!(total_warps > 0, "launch must request at least one warp");
        assert!(
            config.max_resident_warps <= SLOTS,
            "ready-set bitmaps support at most {SLOTS} resident warps"
        );
        let warps_per_wave = total_warps.div_ceil(waves);
        let mem = MemorySubsystem::new(config.memory.clone());
        let events = TimeQ::with_horizon(event_horizon(&mem, &kernel));
        let program = DecodedProgram::new(&kernel);
        let slots = (0..config.max_resident_warps).map(|_| None).collect();
        let layout = DomainLayout::new(config.sp_clusters);
        let mut stats = SimStats::new();
        stats.layout = layout;
        let sanitizer = if config.sanitize {
            gating.set_sanitize(true);
            Some(Sanitizer::new(gating.invariants(), layout))
        } else {
            None
        };
        let recorder = config.telemetry.clone();
        if let Some(rec) = &recorder {
            gating.set_recorder(rec.clone());
            scheduler.set_recorder(rec.clone());
        }
        let indexed = vec![Indexed::NONE; config.max_resident_warps];
        let ctx = IssueCtx::persistent(layout, config.issue_width);
        let groups = config.max_resident_warps.div_ceil(block_warps as usize);
        Sm {
            config,
            layout,
            kernel,
            program,
            total_warps,
            block_warps,
            stagger,
            warps_per_wave,
            launched: 0,
            slots,
            units: ExecUnits::default(),
            mem,
            scheduler,
            gating,
            events,
            observer: Box::new(NullObserver),
            observer_enabled: false,
            cycle: 0,
            stats,
            acct_busy: 0,
            period_start: [0; NUM_DOMAINS],
            warps_done: 0,
            live_warps: 0,
            refill_hint: true,
            ctx,
            group_live: vec![0; groups],
            group_barrier: vec![0; groups],
            releasable: 0,
            active_bits: 0,
            active_count: 0,
            finished_bits: 0,
            dirty_bits: 0,
            active_subset: [0; 4],
            indexed,
            veto_until: 0,
            ff_transitions: Vec::new(),
            sanitizer,
            recorder,
        }
    }

    /// Records slot `i` as indexed under `entry` (its warp's cached
    /// class and next-instruction decode) in the maintained bitmaps and
    /// counters. Must mirror every class-field write; [`Sm::unindex_slot`]
    /// is its exact inverse.
    fn index_slot(&mut self, i: usize, entry: Indexed) {
        debug_assert_eq!(self.indexed[i], Indexed::NONE, "slot {i} indexed twice");
        let bit = 1u128 << i;
        // A just-launched warp of an empty kernel carries the stale
        // launch class `Ready` with no next instruction; it retires at
        // its first reclassify drain, before the ready set or the
        // subset counts are ever read, so it is neither ready nor
        // counted here.
        match (entry.class, entry.meta) {
            (WarpClass::Ready, Some(meta)) => self.ctx.set_ready(i, meta.unit, meta.is_global_load),
            (WarpClass::Barrier, _) => {
                let g = self.group_of(i);
                self.group_barrier[g] += 1;
                self.update_group(g);
            }
            _ => {}
        }
        if entry.class.in_active_set() {
            self.active_bits |= bit;
            self.active_count += 1;
            if let Some(meta) = entry.meta {
                self.active_subset[meta.unit.index()] += 1;
            }
        }
        self.indexed[i] = entry;
    }

    /// Removes slot `i`'s contribution from the maintained bitmaps and
    /// counters, based on the entry it was indexed under (not on its
    /// warp's class, which may have changed since).
    fn unindex_slot(&mut self, i: usize) {
        let entry = std::mem::replace(&mut self.indexed[i], Indexed::NONE);
        let bit = 1u128 << i;
        match entry.class {
            WarpClass::Ready => self.ctx.clear_ready(i),
            WarpClass::Barrier => {
                let g = self.group_of(i);
                self.group_barrier[g] -= 1;
                self.update_group(g);
            }
            _ => {}
        }
        if entry.class.in_active_set() {
            self.active_bits &= !bit;
            self.active_count -= 1;
            if let Some(meta) = entry.meta {
                self.active_subset[meta.unit.index()] -= 1;
            }
        }
    }

    /// Re-indexes slot `i` under `entry`, skipping the
    /// unindex/index pair when the slot is already indexed under it.
    fn reindex_slot(&mut self, i: usize, entry: Indexed) {
        if self.indexed[i] != entry {
            self.unindex_slot(i);
            self.index_slot(i, entry);
        }
    }

    /// The thread-block slot group slot `i` belongs to.
    fn group_of(&self, i: usize) -> usize {
        i / self.block_warps as usize
    }

    /// Recomputes group `g`'s bit in `releasable` after its live or
    /// at-barrier count changed.
    fn update_group(&mut self, g: usize) {
        let live = self.group_live[g];
        if live > 0 && self.group_barrier[g] == live {
            self.releasable |= 1u128 << g;
        } else {
            self.releasable &= !(1u128 << g);
        }
    }

    /// The installed scheduler's name.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Installs a per-cycle observer (tracing, waveforms, time series).
    ///
    /// Pass an `Rc<RefCell<...>>` wrapping `warped-telemetry`'s
    /// `UtilizationTrace` or an energy timeline (or any
    /// [`CycleObserver`]) and keep a clone to read the recording after
    /// [`Sm::run`] consumes the simulator.
    pub fn set_observer(&mut self, observer: Box<dyn CycleObserver>) {
        self.observer = observer;
        self.observer_enabled = true;
    }

    /// Runs the simulation to completion (or to the cycle cap).
    #[must_use]
    pub fn run(mut self) -> SmOutcome {
        let mut timed_out = false;
        // Wall-clock watchdog: checked every 1024 loop iterations
        // (including the first, so a zero budget trips deterministically)
        // to keep `Instant::now` off the hot path.
        let watchdog = self
            .config
            .wall_clock_budget
            .map(|budget| (std::time::Instant::now(), budget));
        let mut iter: u32 = 0;
        loop {
            self.fill_slots();
            if self.all_done() {
                break;
            }
            if self.cycle >= self.config.max_cycles {
                timed_out = true;
                break;
            }
            if let Some((start, budget)) = watchdog {
                if iter & 1023 == 0 && start.elapsed() >= budget {
                    timed_out = true;
                    break;
                }
                iter = iter.wrapping_add(1);
            }
            if self.config.fast_forward && self.try_fast_forward() {
                continue;
            }
            self.step();
        }
        // Close the busy or idle period still open in every domain.
        self.close_periods(self.layout.mask(), self.cycle);
        self.stats.warps_completed = self.warps_done;
        self.stats.heap_peak = self.events.peak() as u64;
        // Drain trailing fills so the memory counters are complete (and
        // identical whether or not the sanitizer runs its own draining
        // conservation check).
        self.mem.finalize(self.cycle);
        if self.sanitizer.is_some() {
            self.mem.assert_conserved(self.cycle);
        }
        self.stats.mem = self.mem.stats_snapshot();
        let gating = self.gating.report();
        if let Some(s) = &self.sanitizer {
            let powered = self.gating.powered_flags(self.layout.all());
            s.finish(&self.stats, &gating, &powered);
        }
        SmOutcome {
            stats: self.stats,
            gating,
            timed_out,
        }
    }

    fn all_done(&self) -> bool {
        self.launched == self.total_warps && self.live_warps == 0
    }

    /// Launches grid warps into free slots, at thread-block granularity:
    /// a group of `block_warps` consecutive slots is refilled only once
    /// every slot in the group is free (the whole previous block
    /// finished). A draining block therefore leaves its group's slots
    /// empty — the CTA-tail under-occupancy real GPUs exhibit.
    fn fill_slots(&mut self) {
        // Refill preconditions (a fully-free slot group; the wave
        // barrier) only change when a warp retires, so between
        // retirements the group scan is a guaranteed no-op and the
        // hint skips it.
        if !self.refill_hint {
            return;
        }
        self.refill_hint = false;
        let group = self.block_warps as usize;
        let n = self.slots.len();
        let mut g0 = 0;
        while g0 < n {
            if self.launched == self.total_warps {
                return;
            }
            // Wave barrier: the next warp may only launch once every
            // warp of all previous waves (kernel launches) has retired.
            let wave_start =
                u64::from(self.launched / self.warps_per_wave) * u64::from(self.warps_per_wave);
            if self.warps_done < wave_start {
                return;
            }
            let g1 = (g0 + group).min(n);
            if self.slots[g0..g1].iter().all(Option::is_none) {
                for i in g0..g1 {
                    if self.launched == self.total_warps {
                        break;
                    }
                    let mut warp = Warp::launch(WarpId(self.launched), &self.kernel, &self.program);
                    if self.stagger > 0 {
                        // Deterministic per-warp phase offset (splitmix64).
                        let mut h = u64::from(self.launched).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        h ^= h >> 27;
                        let max_skip = self.kernel.dynamic_len().saturating_sub(1);
                        let skip = (h % u64::from(self.stagger + 1)).min(max_skip);
                        for _ in 0..skip {
                            warp.cursor.advance(&self.kernel);
                        }
                        warp.refresh_next(&self.program);
                    }
                    let entry = Indexed::of(&warp, &self.program);
                    self.slots[i] = Some(warp);
                    self.launched += 1;
                    self.live_warps += 1;
                    // A launched warp is classed `Ready`, never at a
                    // barrier, so its group cannot turn releasable.
                    self.group_live[g0 / group] += 1;
                    self.dirty_bits |= 1u128 << i;
                    self.index_slot(i, entry);
                }
            }
            g0 = g1;
        }
    }

    /// Executes one cycle.
    fn step(&mut self) {
        let cycle = self.cycle;

        // Phase 1: writebacks and retires scheduled for this cycle.
        if self.events.has_due(cycle) {
            let mut events = self.events.take_due(cycle);
            self.stats.events_dispatched += events.len() as u64;
            for ev in events.drain(..) {
                match ev {
                    Event::PipeRetire { domain } => self.units.retire(domain),
                    Event::Complete {
                        slot,
                        warp,
                        dst,
                        frees_mshr,
                        retires,
                    } => {
                        if let Some(domain) = retires {
                            self.units.retire(domain);
                        }
                        if frees_mshr {
                            self.mem.complete_global_load();
                        }
                        let w = self.slots[slot.0]
                            .as_mut()
                            .expect("completion for a vacated slot");
                        debug_assert_eq!(w.id, warp, "slot reused while instruction in flight");
                        if let Some(d) = dst {
                            w.scoreboard.release(d);
                        }
                        w.in_flight -= 1;
                        w.dirty = true;
                        self.dirty_bits |= 1u128 << slot.0;
                    }
                }
            }
            // Hand the (drained) event buffer back to the clock so its
            // capacity is reused; nothing schedules into the current
            // cycle.
            self.events.restore(cycle, events);
        }

        // Phase 2: reclassify warps whose inputs changed since the last
        // classification (classes are pure functions of the I-buffer
        // entry and the scoreboard, so clean warps keep theirs), retire
        // finished ones, and re-index each whose `(class, meta)` pair
        // changed. Only dirty warps are visited — clean warps keep their
        // class and their index entries, so this drain costs
        // O(changes), not O(resident slots).
        let mut dirty = self.dirty_bits;
        self.dirty_bits = 0;
        while dirty != 0 {
            let i = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            let Some(w) = self.slots[i].as_mut() else {
                continue;
            };
            debug_assert!(w.dirty, "dirty bit set for a clean warp");
            if w.is_finished() {
                self.unindex_slot(i);
                self.slots[i] = None;
                let g = self.group_of(i);
                self.group_live[g] -= 1;
                self.update_group(g);
                self.warps_done += 1;
                self.live_warps -= 1;
                self.refill_hint = true;
                self.finished_bits &= !(1u128 << i);
            } else {
                w.reclassify(&self.program);
                w.dirty = false;
                let entry = Indexed::of(w, &self.program);
                self.reindex_slot(i, entry);
            }
        }

        // Phase 2b: barrier release. A thread block whose live warps
        // have all arrived at the barrier steps past it together; the
        // release re-indexes each released warp inline.
        self.release_barriers();

        let active_count = self.active_count;
        self.stats.active_warp_cycles += u64::from(active_count);
        self.stats.active_warps_max = self.stats.active_warps_max.max(active_count);

        if self.sanitizer.is_some() {
            // Independent re-derivation of the maintained issue-stage
            // index: the ready bitmaps the scheduler reads and the group
            // counters barrier release reads.
            self.assert_indexed();
        }

        let active_subset = self.active_subset;

        // Phase 3: scheduler picks under the current gating state (one
        // virtual dispatch for the whole layout, not one per domain).
        let domain_on = self.gating.powered_flags(self.layout.all());
        let ldst_credits = self.mem.load_credits(cycle);
        self.ctx
            .reset_for_cycle(cycle, mask_of(&domain_on), active_subset, ldst_credits);
        self.scheduler.pick(&mut self.ctx);
        let (blocked_demand, issued_count) = self.ctx.cycle_result();

        match issued_count {
            0 => self.stats.idle_issue_cycles += 1,
            2.. => self.stats.dual_issue_cycles += 1,
            _ => {}
        }

        // Phase 4: apply the picks (`Pick` is `Copy`; the buffer stays
        // in the context for the next cycle).
        for i in 0..self.ctx.picks.len() {
            let pick = self.ctx.picks[i];
            if self.sanitizer.is_some() {
                assert!(
                    domain_on[pick.domain.index()],
                    "sanitizer: instruction issued into unpowered domain {} at cycle {cycle}",
                    pick.domain
                );
            }
            self.apply_issue(pick.slot, pick.domain);
        }

        // Phase 5: busy/idle accounting. Only domains whose busy bit
        // flipped since the last accounted cycle close a period (domains
        // beyond the layout never execute anything, so never flip).
        let busy = self.units.busy_mask();
        let flipped = busy ^ self.acct_busy;
        if flipped != 0 {
            self.close_periods(flipped, cycle);
            self.acct_busy = busy;
        }

        // Phase 6: let the gating controller advance its state machines.
        self.gating.observe(&CycleObservation {
            cycle,
            busy,
            blocked_demand,
            active_subset,
        });

        // Phase 7: sanitizer, telemetry, and external observer taps.
        // All see the same sample; the sanitizer goes first so a
        // violation panics before anything records the poisoned cycle.
        if self.observer_enabled || self.sanitizer.is_some() || self.recorder.is_some() {
            let sample = CycleSample {
                cycle,
                busy: flags_of(busy),
                powered: domain_on,
                issued: issued_count as u8,
                active_warps: active_count,
            };
            if let Some(s) = &mut self.sanitizer {
                s.observe(&sample);
            }
            if let Some(r) = &self.recorder {
                r.observe_sample(&sample);
            }
            if self.observer_enabled {
                self.observer.observe(&sample);
            }
        }

        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Attempts to jump the clock over a stall region, returning
    /// whether it did.
    ///
    /// A span is skippable when the current cycle has no pending
    /// events, no live warp sits in the active set (so the ready set
    /// and active subsets are empty and nothing can issue), no warp is
    /// finished-but-unretired, and no barrier group is releasable.
    /// Warp classes only change through scheduled events, issues, and
    /// barrier releases, so under those conditions every cycle up to
    /// the next scheduled event repeats the same no-op step; the
    /// batched bookkeeping in [`Sm::fast_forward`] reproduces that run
    /// of steps bit for bit. When classes might be stale (a warp that
    /// issued last cycle keeps its `Ready` class), staleness always
    /// shows *more* activity than reality, so the check only ever errs
    /// towards stepping — never towards skipping.
    fn try_fast_forward(&mut self) -> bool {
        // The maintained bitmaps replace the old per-slot scan: a set
        // `active_bits` bit is exactly a live warp whose (cached,
        // possibly stale) class is in the active set, and
        // `finished_bits` covers the one path (barrier release) that
        // can finish a warp without a scheduled event. A finished warp
        // retires (and may unblock a refill or a wave) on the next
        // step. Staleness always shows *more* activity than reality,
        // so the check only ever errs towards stepping — never towards
        // skipping.
        if self.active_bits != 0 || self.finished_bits != 0 {
            return false;
        }
        if self.events.has_due(self.cycle) {
            return false;
        }
        if self.releasable != 0 {
            return false;
        }
        // A scheduler veto holds for its whole span (nothing the
        // scheduler could observe changes before the event bounding
        // it), so don't re-ask until the span has elapsed.
        if self.cycle < self.veto_until {
            return false;
        }
        // Distance to the next scheduled event; if none is pending
        // nothing can ever change and per-cycle stepping would idle
        // its way to the cycle cap, so jump straight there.
        let horizon = self.config.max_cycles - self.cycle;
        let span = self
            .events
            .next_cycle()
            .map_or(horizon, |c| (c - self.cycle).min(horizon));
        // The scheduler must be able to replay `span` empty picks in
        // closed form; a veto (default for unknown schedulers) leaves
        // all state untouched and falls back to per-cycle stepping
        // for the remainder of the span.
        if !self.scheduler.fast_forward_idle(span) {
            self.veto_until = self.cycle + span;
            return false;
        }
        if self.sanitizer.is_some() {
            // Independent re-derivation of the jump distance: no event
            // may be scheduled inside the span, or fast-forward would
            // silently skip a scheduled writeback or retire. The scan
            // walks the wheel slots, not the occupancy bitmap the span
            // came from.
            if let Some(min) = self.events.min_cycle_by_scan() {
                assert!(
                    min >= self.cycle + span,
                    "sanitizer: fast-forward over a pending event at cycle {min}"
                );
            }
        }
        self.fast_forward(span);
        true
    }

    /// Sanitizer cross-check of the maintained issue-stage index:
    /// re-derives the ready bitmaps (with each ready slot's unit and
    /// load flag) and their union, the active set and its population,
    /// each slot's recorded `(class, meta)` pair (and, for clean warps,
    /// that the cached class is what a fresh classification gives), the
    /// per-group live and at-barrier counts, and the releasable groups
    /// from `slots` alone, and panics on the first mismatch with what
    /// [`Sm::index_slot`] and friends maintain.
    fn assert_indexed(&self) {
        let cycle = self.cycle;
        let mut ready = [0u128; 4];
        let mut active = 0u128;
        let mut live = vec![0u32; self.group_live.len()];
        let mut barrier = vec![0u32; self.group_barrier.len()];
        for (i, w) in self.slots.iter().enumerate() {
            let Some(w) = w else {
                assert_eq!(
                    self.indexed[i],
                    Indexed::NONE,
                    "sanitizer: vacant slot {i} still indexed at cycle {cycle}"
                );
                continue;
            };
            let bit = 1u128 << i;
            let meta = w.next_meta(&self.program);
            live[self.group_of(i)] += 1;
            if w.class.in_active_set() {
                active |= bit;
            }
            match (w.class, meta) {
                (WarpClass::Ready, Some(meta)) => {
                    ready[meta.unit.index()] |= bit;
                    assert_eq!(
                        self.ctx.ready_meta(i),
                        (meta.unit, meta.is_global_load),
                        "sanitizer: stale ready metadata for slot {i} at cycle {cycle}"
                    );
                }
                (WarpClass::Barrier, _) => barrier[self.group_of(i)] += 1,
                _ => {}
            }
            assert_eq!(
                self.indexed[i],
                Indexed {
                    class: w.class,
                    meta
                },
                "sanitizer: slot {i} indexed under a stale (class, meta) at cycle {cycle}"
            );
            if !w.dirty {
                assert_eq!(
                    w.classify(&self.program),
                    w.class,
                    "sanitizer: clean warp in slot {i} carries a stale class at cycle {cycle}"
                );
            }
        }
        for unit in UnitType::ALL {
            assert_eq!(
                self.ctx.ready_of(unit),
                ready[unit.index()],
                "sanitizer: {unit} ready bitmap drifted at cycle {cycle}"
            );
        }
        assert_eq!(
            self.ctx.ready(),
            ready.iter().fold(0, |all, r| all | r),
            "sanitizer: ready union drifted at cycle {cycle}"
        );
        assert_eq!(
            self.active_bits, active,
            "sanitizer: active-set bitmap drifted at cycle {cycle}"
        );
        assert_eq!(
            self.active_count,
            active.count_ones(),
            "sanitizer: active-set count drifted at cycle {cycle}"
        );
        assert_eq!(
            (&self.group_live, &self.group_barrier),
            (&live, &barrier),
            "sanitizer: group (live, at-barrier) counters drifted at cycle {cycle}"
        );
        let releasable = live
            .iter()
            .zip(&barrier)
            .enumerate()
            .filter(|(_, (&l, &b))| l > 0 && b == l)
            .fold(0u128, |bits, (g, _)| bits | 1u128 << g);
        assert_eq!(
            self.releasable, releasable,
            "sanitizer: releasable groups drifted at cycle {cycle}"
        );
    }

    /// Jumps the clock `span` cycles in one step, reproducing exactly
    /// the bookkeeping that `span` idle [`Sm::step`] calls would have
    /// performed (the eligibility conditions are established by
    /// [`Sm::try_fast_forward`]).
    fn fast_forward(&mut self, span: u64) {
        let cycle = self.cycle;

        // Phases 1-4 equivalent: no events, no retirement, no barrier
        // release, an empty ready set, nothing issues. The only
        // issue-stage effect is the idle-issue count; the active-warp
        // accounting adds zero each cycle.
        self.stats.idle_issue_cycles += span;

        // Phase 5 has nothing to do: busy flags cannot change inside the
        // span (a busy pipe's retire event would bound it), so every
        // domain's open busy or idle period simply runs on.
        let busy = self.units.busy_mask();
        debug_assert_eq!(busy, self.acct_busy, "busy edge left unaccounted");

        // Phase 6: advance the gating controller across the whole
        // span, capturing every power-state edge it makes.
        let tap = self.observer_enabled || self.sanitizer.is_some() || self.recorder.is_some();
        let mut powered = [false; NUM_DOMAINS];
        if tap {
            powered = self.gating.powered_flags(self.layout.all());
        }
        let mut transitions = std::mem::take(&mut self.ff_transitions);
        transitions.clear();
        self.gating.fast_forward(
            &CycleObservation {
                cycle,
                busy,
                blocked_demand: [0; 4],
                active_subset: [0; 4],
            },
            span,
            &mut transitions,
        );

        // Phase 7: sanitizer and observer taps, batched. Per-cycle
        // samples only ever report layout domains as powered, so edges
        // on out-of-layout domains (possible for whole-SM controllers)
        // are dropped from the observer's view.
        if tap {
            let layout = self.layout;
            transitions.retain(|t| layout.contains(t.domain));
            let sample = SpanSample {
                start_cycle: cycle,
                cycles: span,
                busy: flags_of(busy),
                powered,
                transitions: &transitions,
                active_warps: 0,
            };
            if let Some(s) = &mut self.sanitizer {
                s.observe_span(&sample);
            }
            if let Some(r) = &self.recorder {
                r.observe_span_sample(&sample);
            }
            if self.observer_enabled {
                self.observer.observe_span(&sample);
            }
        }
        self.ff_transitions = transitions;

        self.cycle += span;
        self.stats.cycles = self.cycle;
        self.stats.fast_forward_spans += 1;
        self.stats.fast_forwarded_cycles += span;
    }

    /// Releases thread blocks whose live warps all reached a barrier.
    ///
    /// A block's slot group advances together: every live warp whose
    /// next instruction is the barrier steps past it. Finished or
    /// vacated slots in the group don't hold the barrier hostage
    /// (matching `__syncthreads` semantics for exited warps). Released
    /// warps are re-indexed inline, so the maintained bitmaps reflect
    /// their fresh classes immediately; this is the one path that can
    /// leave a warp finished-but-unretired, recorded in
    /// `finished_bits`.
    fn release_barriers(&mut self) {
        // The maintained group counters name the releasable groups
        // directly; barrier-free cycles find the set empty. Iterate a
        // snapshot: a released group that lands on its next barrier at
        // once (back-to-back barriers) re-enters the set, but releases
        // again only next cycle.
        let group = self.block_warps as usize;
        let n = self.slots.len();
        let mut groups = self.releasable;
        while groups != 0 {
            let g = groups.trailing_zeros() as usize;
            groups &= groups - 1;
            let g0 = g * group;
            for i in g0..(g0 + group).min(n) {
                if self.slots[i].is_none() {
                    continue;
                }
                let w = self.slots[i].as_mut().expect("released a vacated slot");
                debug_assert_eq!(w.class, WarpClass::Barrier);
                w.cursor.advance(&self.kernel);
                w.refresh_next(&self.program);
                // A released warp may sit at its next barrier
                // already (back-to-back barriers).
                w.reclassify(&self.program);
                // The advance may have finished the warp; leave the
                // retirement test to the next classification drain.
                w.dirty = true;
                let finished = w.is_finished();
                let entry = Indexed::of(w, &self.program);
                self.reindex_slot(i, entry);
                self.dirty_bits |= 1u128 << i;
                if finished {
                    self.finished_bits |= 1u128 << i;
                }
            }
        }
    }

    /// Applies a validated issue decision.
    fn apply_issue(&mut self, slot: WarpSlot, domain: DomainId) {
        let w = self.slots[slot.0].as_mut().expect("pick for vacated slot");
        let decoded = self
            .program
            .get(w.next.expect("pick for warp without instruction"));
        let instr = decoded.instr();
        let unit = decoded.meta.unit;
        debug_assert_eq!(unit, domain.unit(), "pick routed to wrong unit");

        let (pipe_occ, complete_in, frees_mshr) = match instr.opcode() {
            Opcode::Load(MemSpace::Global) => {
                let issue = self.mem.issue_global_load_at(
                    self.cycle,
                    w.id.0,
                    w.cursor.pc(),
                    w.cursor.executed(),
                    instr.addr_gen(),
                );
                if let (Some(rec), Some(trace)) = (&self.recorder, issue.trace) {
                    rec.note_mem_access(self.cycle);
                    match trace.kind {
                        warped_mem::AccessKind::L1Hit => {}
                        warped_mem::AccessKind::MshrMerge { line, .. } => {
                            rec.record(self.cycle, ProbeEvent::MshrMerge { line });
                        }
                        warped_mem::AccessKind::Miss {
                            line, fill_cycle, ..
                        } => {
                            rec.record(self.cycle, ProbeEvent::MshrAlloc { line });
                            rec.record(fill_cycle, ProbeEvent::Fill { line });
                        }
                    }
                }
                (LDST_PIPE_OCCUPANCY, issue.latency, true)
            }
            Opcode::Load(MemSpace::Shared) => {
                (LDST_PIPE_OCCUPANCY, self.mem.shared_latency(), false)
            }
            Opcode::Store(MemSpace::Global) => {
                self.mem.issue_global_store_at(
                    self.cycle,
                    w.id.0,
                    w.cursor.pc(),
                    w.cursor.executed(),
                    instr.addr_gen(),
                );
                (LDST_PIPE_OCCUPANCY, LDST_PIPE_OCCUPANCY, false)
            }
            Opcode::Store(MemSpace::Shared) => (LDST_PIPE_OCCUPANCY, LDST_PIPE_OCCUPANCY, false),
            _ => (instr.latency(), instr.latency(), false),
        };

        w.scoreboard.record_issue(instr);
        w.in_flight += 1;
        w.dirty = true;
        let warp_id = w.id;
        let dst = instr.destination();
        w.cursor.advance(&self.kernel);
        w.refresh_next(&self.program);
        // The stale `Ready` class (and its index entries) stand until
        // the next cycle's reclassify drain — exactly the staleness
        // window the pre-bitmap scan had.
        self.dirty_bits |= 1u128 << slot.0;

        self.units.issue(domain);
        self.stats.issued_by_type[unit.index()] += 1;
        self.stats.units[domain.index()].issued += 1;

        // Pipe retire precedes completion when both land on one cycle
        // (they were pushed adjacently and drain FIFO); the fused event
        // applies them in that same order.
        let fused = pipe_occ == complete_in;
        if !fused {
            self.schedule(pipe_occ, Event::PipeRetire { domain });
        }
        self.schedule(
            complete_in,
            Event::Complete {
                slot,
                warp: warp_id,
                dst,
                frees_mshr,
                retires: fused.then_some(domain),
            },
        );
    }

    /// Closes the open busy or idle period of every domain in `domains`
    /// (layout domains only) at cycle `end` (exclusive) and starts the
    /// next one there: a busy period adds its length to `busy_cycles`,
    /// an idle period is one entry in the idle-period histogram.
    fn close_periods(&mut self, domains: DomainMask, end: u64) {
        let mut left = domains;
        while left != 0 {
            let d = left.trailing_zeros() as usize;
            left &= left - 1;
            let len = end - self.period_start[d];
            let unit = &mut self.stats.units[d];
            if self.acct_busy >> d & 1 == 1 {
                unit.busy_cycles += len;
            } else {
                unit.idle_histogram
                    .record(u32::try_from(len).unwrap_or(u32::MAX));
            }
            self.period_start[d] = end;
        }
    }

    /// Schedules `ev` for `delta` cycles from now. Every `delta` passed
    /// here is bounded by [`event_horizon`].
    fn schedule(&mut self, delta: u32, ev: Event) {
        debug_assert!(delta > 0, "events must land in a future cycle");
        self.events.push(self.cycle, u64::from(delta), ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_iface::AlwaysOn;
    use crate::sched::TwoLevelScheduler;
    use warped_isa::{KernelBuilder, UnitType};

    fn run_kernel(kernel: Kernel, warps: u32) -> SmOutcome {
        let sm = Sm::new(
            SmConfig::small_for_tests(),
            LaunchConfig::new(kernel, warps),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        );
        sm.run()
    }

    #[test]
    fn single_warp_single_instruction_completes() {
        let k = KernelBuilder::new("one").iadd(1, 0, 0).build();
        let out = run_kernel(k, 1);
        assert!(!out.timed_out);
        assert_eq!(out.stats.instructions(), 1);
        assert_eq!(out.stats.warps_completed, 1);
        // Issue at cycle 0, completes at cycle 4, finished detected then.
        assert!(out.stats.cycles >= 4);
        assert_eq!(out.stats.issued(UnitType::Int), 1);
    }

    #[test]
    fn dependent_chain_is_serialized_by_latency() {
        // Each instruction depends on the previous one: cycles ~= n * 4.
        let mut b = KernelBuilder::new("chain");
        for i in 0..10u16 {
            b = b.iadd(i + 1, i, i);
        }
        let out = run_kernel(b.build(), 1);
        assert!(!out.timed_out);
        assert_eq!(out.stats.instructions(), 10);
        assert!(
            out.stats.cycles >= 40,
            "10 chained 4-cycle ops need >= 40 cycles, got {}",
            out.stats.cycles
        );
    }

    #[test]
    fn independent_instructions_pipeline_with_initiation_interval_one() {
        // 8 independent INT instructions from one warp: issue one per
        // cycle (single warp → one instruction per cycle from the I-buffer
        // in program order; all independent so no stalls).
        let mut b = KernelBuilder::new("indep");
        for i in 0..8u16 {
            b = b.iadd(i + 1, 0, 0);
        }
        let out = run_kernel(b.build(), 1);
        assert!(!out.timed_out);
        assert!(
            out.stats.cycles <= 16,
            "independent ops should pipeline, got {}",
            out.stats.cycles
        );
    }

    #[test]
    fn many_warps_exploit_dual_issue() {
        let k = KernelBuilder::new("par")
            .begin_loop(50)
            .iadd(1, 0, 0)
            .fadd(2, 0, 0)
            .end_loop()
            .build();
        let out = run_kernel(k, 8);
        assert!(!out.timed_out);
        assert!(out.stats.dual_issue_cycles > 0, "dual issue never happened");
        assert_eq!(out.stats.instructions(), 8 * 100);
    }

    #[test]
    fn global_load_consumer_parks_warp_in_pending_set() {
        let k = KernelBuilder::new("mem")
            .load_global(1)
            .iadd(2, 1, 1)
            .build();
        let out = run_kernel(k, 1);
        assert!(!out.timed_out);
        // Latency at least the hit latency: load at cycle 0 completes no
        // earlier than cycle hit_latency, consumer issues after that.
        let min_cycles = u64::from(SmConfig::small_for_tests().memory.hit_latency);
        assert!(
            out.stats.cycles > min_cycles,
            "cycles {} must exceed memory latency {min_cycles}",
            out.stats.cycles
        );
    }

    #[test]
    fn grid_larger_than_resident_warps_refills_slots() {
        let k = KernelBuilder::new("refill")
            .begin_loop(5)
            .iadd(1, 0, 0)
            .end_loop()
            .build();
        let cfg = SmConfig::small_for_tests();
        let warps = (cfg.max_resident_warps as u32) * 3;
        let out = run_kernel(k, warps);
        assert!(!out.timed_out);
        assert_eq!(out.stats.warps_completed, u64::from(warps));
        assert_eq!(out.stats.instructions(), u64::from(warps) * 5);
    }

    #[test]
    fn busy_plus_idle_equals_total_unit_cycles() {
        let k = KernelBuilder::new("acct")
            .begin_loop(20)
            .iadd(1, 0, 0)
            .fadd(2, 0, 0)
            .load_global(3)
            .end_loop()
            .build();
        let out = run_kernel(k, 4);
        assert!(!out.timed_out);
        for unit in UnitType::ALL {
            let busy = out.stats.busy_cycles(unit);
            let idle = out.stats.idle_cycles(unit);
            let domains = DomainId::domains_of(unit).len() as u64;
            assert_eq!(busy + idle, domains * out.stats.cycles);
        }
    }

    #[test]
    fn idle_histogram_cycles_match_idle_accounting() {
        let k = KernelBuilder::new("hist")
            .begin_loop(10)
            .iadd(1, 0, 0)
            .end_loop()
            .build();
        let out = run_kernel(k, 2);
        for d in DomainId::ALL {
            let hist_cycles = out.stats.unit(d).idle_histogram.idle_cycles();
            let idle_cycles = out.stats.cycles - out.stats.unit(d).busy_cycles;
            assert_eq!(
                hist_cycles, idle_cycles,
                "domain {d}: histogram must cover every idle cycle"
            );
        }
    }

    #[test]
    fn sfu_instructions_go_to_sfu_domain() {
        let k = KernelBuilder::new("sfu").sfu(1, 0).build();
        let out = run_kernel(k, 1);
        assert_eq!(out.stats.unit(DomainId::SFU).issued, 1);
        assert!(out.stats.unit(DomainId::SFU).busy_cycles >= 16);
    }

    #[test]
    fn timeout_flag_set_when_cap_exceeded() {
        let k = KernelBuilder::new("long")
            .begin_loop(10_000)
            .iadd(1, 1, 1)
            .end_loop()
            .build();
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_cycles = 100;
        let sm = Sm::new(
            cfg,
            LaunchConfig::new(k, 4),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        );
        let out = sm.run();
        assert!(out.timed_out);
    }

    #[test]
    fn block_granular_refill_waits_for_whole_block() {
        // 4 slots in blocks of 2; warp programs of very different
        // lengths. The long warp's block-mate finishes early but its
        // slot must stay empty until the long warp retires.
        let k = KernelBuilder::new("blocks")
            .begin_loop(3)
            .iadd(1, 0, 0)
            .end_loop()
            .build();
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_resident_warps = 4;
        let launch = LaunchConfig::new(k.clone(), 8).with_block_warps(2);
        let blocked = Sm::new(
            cfg.clone(),
            launch,
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        let per_warp = Sm::new(
            cfg,
            LaunchConfig::new(k, 8).with_block_warps(1),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert!(!blocked.timed_out && !per_warp.timed_out);
        assert_eq!(blocked.stats.warps_completed, 8);
        assert_eq!(per_warp.stats.warps_completed, 8);
        // Block-granular refill can only be slower or equal.
        assert!(blocked.stats.cycles >= per_warp.stats.cycles);
    }

    #[test]
    fn stagger_desynchronises_but_preserves_completion() {
        let k = KernelBuilder::new("stag")
            .begin_loop(10)
            .iadd(1, 0, 0)
            .fadd(2, 0, 0)
            .end_loop()
            .build();
        let cfg = SmConfig::small_for_tests();
        let plain = Sm::new(
            cfg.clone(),
            LaunchConfig::new(k.clone(), 6),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        let staggered = Sm::new(
            cfg,
            LaunchConfig::new(k, 6).with_stagger(20),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert!(!staggered.timed_out);
        assert_eq!(staggered.stats.warps_completed, 6);
        // Staggered warps skip part of their program, so they execute
        // no more instructions than the un-staggered launch.
        assert!(staggered.stats.instructions() <= plain.stats.instructions());
        assert!(staggered.stats.instructions() > 0);
    }

    #[test]
    fn stagger_is_deterministic() {
        let mk = || {
            let k = KernelBuilder::new("stagdet")
                .begin_loop(10)
                .iadd(1, 0, 0)
                .load_global(2)
                .end_loop()
                .build();
            Sm::new(
                SmConfig::small_for_tests(),
                LaunchConfig::new(k, 6).with_stagger(15),
                Box::new(TwoLevelScheduler::new()),
                Box::new(AlwaysOn::new()),
            )
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.issued_by_type, b.stats.issued_by_type);
    }

    #[test]
    fn barrier_convoys_a_block() {
        // Two warps in one block; one stalls on a global load before the
        // barrier. The other must wait at the barrier until its block
        // mate arrives, even though its own operands are ready.
        let k = KernelBuilder::new("bar")
            .load_global(1)
            .iadd(2, 1, 1) // warp 0 path stalls here on the load
            .barrier()
            .iadd(3, 0, 0)
            .build();
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_resident_warps = 2;
        cfg.memory.l1_hit_rate = 0.0; // both miss: long convoy
        let out = Sm::new(
            cfg.clone(),
            LaunchConfig::new(k, 2).with_block_warps(2),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert!(!out.timed_out);
        assert_eq!(out.stats.warps_completed, 2);
        // All three executable instructions per warp ran; the barrier
        // itself never occupied an execution unit.
        assert_eq!(out.stats.instructions(), 2 * 3);
        // The run spans at least one full miss latency.
        assert!(out.stats.cycles > u64::from(cfg.memory.miss_latency));
    }

    #[test]
    fn barrier_only_kernel_terminates() {
        // Degenerate program: compute, barrier, compute — with a single
        // warp the barrier must release immediately.
        let k = KernelBuilder::new("solo")
            .iadd(1, 0, 0)
            .barrier()
            .iadd(2, 1, 1)
            .build();
        let out = Sm::new(
            SmConfig::small_for_tests(),
            LaunchConfig::new(k, 1),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert!(!out.timed_out);
        assert_eq!(out.stats.instructions(), 2);
    }

    #[test]
    fn barriers_in_loops_release_every_iteration() {
        let k = KernelBuilder::new("barloop")
            .begin_loop(5)
            .iadd(1, 0, 0)
            .barrier()
            .fadd(2, 0, 0)
            .end_loop()
            .build();
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_resident_warps = 4;
        let out = Sm::new(
            cfg,
            LaunchConfig::new(k, 4).with_block_warps(4),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert!(!out.timed_out);
        assert_eq!(
            out.stats.instructions(),
            4 * 10,
            "barriers are not executed"
        );
        assert_eq!(out.stats.warps_completed, 4);
    }

    #[test]
    fn waves_serialize_kernel_launches() {
        let k = KernelBuilder::new("waves")
            .begin_loop(4)
            .iadd(1, 0, 0)
            .end_loop()
            .build();
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_resident_warps = 8;
        let one_wave = Sm::new(
            cfg.clone(),
            LaunchConfig::new(k.clone(), 8),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        let four_waves = Sm::new(
            cfg,
            LaunchConfig::new(k, 8).with_waves(4),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert!(!four_waves.timed_out);
        assert_eq!(four_waves.stats.warps_completed, 8);
        assert!(
            four_waves.stats.cycles > one_wave.stats.cycles,
            "wave barriers must serialize the launches ({} vs {})",
            four_waves.stats.cycles,
            one_wave.stats.cycles
        );
    }

    /// Delegates every pick to a real scheduler but *vetoes* every
    /// fast-forward attempt, counting how often it is asked — the
    /// once-per-span contract's probe.
    struct CountingVeto {
        inner: TwoLevelScheduler,
        asked: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl WarpScheduler for CountingVeto {
        fn pick(&mut self, ctx: &mut IssueCtx) {
            self.inner.pick(ctx);
        }

        fn fast_forward_idle(&mut self, _cycles: u64) -> bool {
            self.asked.set(self.asked.get() + 1);
            false
        }

        fn name(&self) -> &'static str {
            "counting-veto"
        }
    }

    #[test]
    fn event_horizon_covers_a_long_shared_latency() {
        // The shared-memory latency is scheduled like any other delay,
        // so the wheel must be sized past it even when it dwarfs the
        // global-load worst case.
        let run = |skip: bool| {
            let mut cfg = SmConfig::small_for_tests();
            cfg.memory.shared_latency = 100_000;
            // Both flags, exactly as `CoreClock::sm_flags` sets them.
            (cfg.event_queue, cfg.fast_forward) = (skip, skip);
            Sm::new(
                cfg,
                LaunchConfig::new(KernelBuilder::new("shared").load_shared(5).build(), 1),
                Box::new(TwoLevelScheduler::new()),
                Box::new(AlwaysOn::new()),
            )
            .run()
        };
        let stepped = run(false);
        let skipped = run(true);
        assert!(!stepped.timed_out && !skipped.timed_out);
        assert!(stepped.stats.cycles > 100_000);
        assert_eq!(stepped.stats.fast_forwarded_cycles, 0);
        assert!(skipped.stats.fast_forwarded_cycles > 0);
        assert_eq!(skipped.stats.cycles, stepped.stats.cycles);
        assert_eq!(skipped.stats.units, stepped.stats.units);
        assert_eq!(
            skipped.stats.events_dispatched,
            stepped.stats.events_dispatched
        );
        assert_eq!(skipped.gating, stepped.gating);
    }

    #[test]
    fn scheduler_veto_is_consulted_once_per_span() {
        // A long memory stall gives the SM many skippable cycles; a
        // vetoing scheduler must be asked once per span (and then the
        // SM steps through the span without re-asking), not once per
        // stepped cycle.
        let k = KernelBuilder::new("veto")
            .load_global(1)
            .iadd(2, 1, 1)
            .build();
        let mut cfg = SmConfig::small_for_tests();
        cfg.memory.l1_hit_rate = 0.0; // force the long miss latency
        let run_with = |scheduler: Box<dyn WarpScheduler>| {
            Sm::new(
                cfg.clone(),
                LaunchConfig::new(k.clone(), 1),
                scheduler,
                Box::new(AlwaysOn::new()),
            )
            .run()
        };
        let asked = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let vetoed = run_with(Box::new(CountingVeto {
            inner: TwoLevelScheduler::new(),
            asked: asked.clone(),
        }));
        let stepped = {
            let mut cfg = cfg.clone();
            cfg.fast_forward = false;
            Sm::new(
                cfg,
                LaunchConfig::new(k.clone(), 1),
                Box::new(TwoLevelScheduler::new()),
                Box::new(AlwaysOn::new()),
            )
            .run()
        };
        // A vetoing scheduler degrades to per-cycle stepping with
        // identical outcomes.
        assert!(!vetoed.timed_out);
        assert_eq!(vetoed.stats.fast_forwarded_cycles, 0);
        assert_eq!(vetoed.stats.cycles, stepped.stats.cycles);
        assert_eq!(vetoed.stats.issued_by_type, stepped.stats.issued_by_type);
        // The stall is one long span (plus at most a few short ones
        // around issue edges); the veto must be cached across it. The
        // miss latency alone gives > 80 stepped stall cycles, so
        // re-asking per cycle would push this far above the bound.
        let stall_cycles = vetoed.stats.idle_issue_cycles;
        assert!(
            stall_cycles > u64::from(cfg.memory.miss_latency) / 2,
            "test must actually stall (got {stall_cycles} idle-issue cycles)"
        );
        assert!(
            asked.get() < 10,
            "veto consulted {} times for ~{stall_cycles} stalled cycles — \
             must be once per span, not once per cycle",
            asked.get()
        );
        assert!(asked.get() > 0, "veto never consulted");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let mk = || {
            KernelBuilder::new("det")
                .begin_loop(30)
                .load_global(1)
                .iadd(2, 1, 1)
                .fadd(3, 2, 2)
                .end_loop()
                .build()
        };
        let a = run_kernel(mk(), 6);
        // `SmConfig::event_queue` selects nothing any more: turning it
        // off must change no outcome and no clock counter.
        let mut cfg = SmConfig::small_for_tests();
        cfg.event_queue = false;
        let b = Sm::new(
            cfg,
            LaunchConfig::new(mk(), 6),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.issued_by_type, b.stats.issued_by_type);
        assert_eq!(a.stats.dual_issue_cycles, b.stats.dual_issue_cycles);
        assert!(a.stats.fast_forwarded_cycles > 0, "the stalls must skip");
        assert_eq!(a.stats.fast_forwarded_cycles, b.stats.fast_forwarded_cycles);
        assert_eq!(a.stats.fast_forward_spans, b.stats.fast_forward_spans);
        assert_eq!(a.stats.events_dispatched, b.stats.events_dispatched);
        assert!(a.stats.heap_peak > 0, "the event wheel must record a peak");
        assert_eq!(a.stats.heap_peak, b.stats.heap_peak);
    }
}
