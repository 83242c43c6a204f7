//! The unified fault-injection campaign engine.
//!
//! One batch-simulation loop serves both fault models behind
//! [`InjectionPoint`]: SEUs flip a flip-flop's stored value before the
//! combinational evaluation of the injection cycle; SETs XOR-force a
//! combinational net for exactly that evaluation (via a pre-compiled
//! [`ffr_sim::FaultSite`]). Checkpoint restart, 64-lane fault batching and
//! the convergence early-exit are shared.

use crate::judge::FailureJudge;
use crate::model::{FailureClass, InjectionPoint};
use crate::result::{FdrTable, FfCampaignResult};
use crate::sampling::sample_injection_times;
use crate::set::{NetSetResult, SetDeratingTable};
use ffr_netlist::{FfId, NetId};
use ffr_sim::{
    CompiledCircuit, Cone, FaultSite, GoldenRun, InputFrame, LaneView, NetJournal, OutputTrace,
    SimState, Stimulus, WatchList,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Configuration of a statistical SEU campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injections per flip-flop (the paper uses 170).
    pub injections_per_ff: usize,
    /// Cycle window in which faults are injected — the paper injects
    /// "during the active phase of the simulation, when packets are sent
    /// and received".
    pub window: std::ops::Range<u64>,
    /// Master seed; combined with the flip-flop index so every flip-flop
    /// has an independent, reproducible injection plan.
    pub seed: u64,
    /// Stop simulating a batch once every lane has re-converged to the
    /// golden state (sound, pure optimisation). Disable only for
    /// measurement ablations.
    pub early_exit: bool,
    /// Evaluate only the injection point's fan-out cone, event-driven:
    /// per cycle only the cone ops whose inputs differ from the golden
    /// [`NetJournal`] run, and everything else is served from golden data
    /// (sound, pure optimisation — produces bit-identical traces and
    /// tallies). `false` selects the whole-circuit reference oracle; use
    /// it only for equivalence checks and measurement ablations.
    pub cone: bool,
}

impl CampaignConfig {
    /// Paper-like defaults: 170 injections, early exit on, seed 0; the
    /// window must still be set to the testbench's active phase.
    pub fn new(window: std::ops::Range<u64>) -> CampaignConfig {
        CampaignConfig {
            injections_per_ff: 170,
            window,
            seed: 0,
            early_exit: true,
            cone: true,
        }
    }

    /// Builder-style override of the injection count.
    pub fn with_injections(mut self, n: usize) -> CampaignConfig {
        self.injections_per_ff = n;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> CampaignConfig {
        self.seed = seed;
        self
    }

    /// Builder-style override of cone restriction: `false` selects the
    /// whole-circuit reference oracle (equivalence checks and ablations
    /// only).
    pub fn with_cone(mut self, cone: bool) -> CampaignConfig {
        self.cone = cone;
        self
    }
}

/// An [`InjectionPoint`] resolved against the compiled circuit: SET
/// targets carry their pre-compiled [`FaultSite`] so the per-cycle loop
/// never re-resolves the net→driving-op lookup.
#[derive(Clone, Copy)]
enum CompiledPoint {
    Seu(FfId),
    Set(FaultSite),
}

/// Fill the per-batch injection schedule: lane times sorted once, lanes
/// sharing a cycle merged into one `(cycle, lane mask)` entry, so the
/// batch loop never rescans every lane's time per cycle.
fn fill_schedule(schedule: &mut Vec<(u64, u64)>, times: &[u64]) {
    schedule.clear();
    for (lane, &t) in times.iter().enumerate() {
        schedule.push((t, 1u64 << lane));
    }
    schedule.sort_unstable_by_key(|&(t, _)| t);
    let mut merged = 0usize;
    for i in 1..schedule.len() {
        if schedule[i].0 == schedule[merged].0 {
            let mask = schedule[i].1;
            schedule[merged].1 |= mask;
        } else {
            merged += 1;
            schedule[merged] = schedule[i];
        }
    }
    schedule.truncate(merged + 1);
}

/// The lanes of a simulated batch (bit `i` = lane `i` of `converged_at`)
/// whose watched outputs differ from golden on some cycle, read as
/// [`LaneView::faulty`] serves them: golden before `faulty.start()` and
/// from the lane's `converged_at` on. One bit-parallel pass per batch
/// that stops once no lane is live (re-converged or already deviating).
fn deviating_lanes(
    golden: &OutputTrace,
    faulty: &OutputTrace,
    converged_at: &[Option<u64>],
) -> u64 {
    let mut live = u64::MAX >> (64 - converged_at.len());
    let mut deviating = 0u64;
    let mut next_converged = faulty.start();
    for cycle in faulty.start()..faulty.end() {
        if cycle == next_converged {
            // Retire the lanes served golden from here on and note the
            // next re-convergence among the rest.
            next_converged = u64::MAX;
            let mut lanes = live;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                match converged_at[lane] {
                    Some(at) if at <= cycle => live &= !(1u64 << lane),
                    Some(at) => next_converged = next_converged.min(at),
                    None => {}
                }
            }
        }
        if live == 0 {
            break;
        }
        let diff = golden
            .row(cycle)
            .iter()
            .zip(faulty.row(cycle))
            .fold(0u64, |acc, (&g, &f)| acc | (f ^ 0u64.wrapping_sub(g & 1)));
        deviating |= diff & live;
        live &= !diff;
    }
    deviating
}

/// How the batch loop evaluates one cycle. The cone modes carry the
/// golden [`NetJournal`] they read boundary and clean-net values from.
#[derive(Clone, Copy)]
enum Eval<'j> {
    /// Event-driven: evaluate only the cone ops whose inputs differ from
    /// golden; fast-forward over quiescent spans.
    Frontier(&'j NetJournal),
    /// Every cone op every cycle, adopted while the frontier is wide;
    /// drops back to [`Eval::Frontier`] when the state re-quiesces.
    Dense(&'j NetJournal),
    /// Whole-circuit reference oracle (`CampaignConfig::cone == false`):
    /// replays the stimulus, never changes mode, never fast-forwards.
    Full,
}

/// The hybrid adopts [`Eval::Dense`] once one cycle's frontier evaluates
/// at least `1 / DENSE_ADOPTION_DIVISOR` of the cone's ops: a worklist op
/// costs a few times a dense cone op (measured breakeven ~1/4 of the cone
/// on mac-small).
const DENSE_ADOPTION_DIVISOR: usize = 4;

/// One injection point compiled for repeated batch simulation: the
/// resolved [`InjectionPoint`], its fan-out [`Cone`] and the per-watch
/// in-cone classification. Built once per point
/// ([`Campaign::point_runner`]) and reused across every policy batch, so
/// the cone closure is never recomputed inside the injection loop.
pub struct PointRunner {
    point: CompiledPoint,
    cone: Cone,
    /// Per watch entry: can this output ever deviate from golden? `false`
    /// entries are copied from the golden trace each cycle.
    watch_in_cone: Vec<bool>,
    cycles_saved: u64,
    frontier_ops_evaluated: u64,
    frontier_cycles: u64,
    frontier_peak: u32,
    /// Cycles evaluated in [`Eval::Dense`] mode across every batch.
    dense_cycles: u64,
    judge_calls: u64,
    judge_golden_lanes: u64,
}

impl PointRunner {
    /// Number of combinational ops in the point's fan-out cone.
    pub fn cone_ops(&self) -> usize {
        self.cone.num_ops()
    }

    /// Number of flip-flops in the point's fan-out cone.
    pub fn cone_ffs(&self) -> usize {
        self.cone.num_ffs()
    }

    /// Number of boundary nets broadcast per simulated cycle.
    pub fn cone_boundary_nets(&self) -> usize {
        self.cone.num_boundary_nets()
    }

    /// Total cycles skipped by the convergence early-exit across every
    /// batch this runner has simulated.
    pub fn cycles_saved(&self) -> u64 {
        self.cycles_saved
    }

    /// Cone ops actually evaluated by the event-driven frontier across
    /// every batch this runner has simulated.
    pub fn frontier_ops_evaluated(&self) -> u64 {
        self.frontier_ops_evaluated
    }

    /// Cone-op evaluations skipped relative to evaluating every cone op
    /// on every simulated cycle (fast-forwarded spans count as
    /// simulated).
    pub fn frontier_ops_skipped(&self) -> u64 {
        (self.frontier_cycles * self.cone.num_ops() as u64)
            .saturating_sub(self.frontier_ops_evaluated)
    }

    /// Largest number of cone ops the frontier evaluated in any single
    /// cycle (worst-case divergence width).
    pub fn frontier_peak(&self) -> u32 {
        self.frontier_peak
    }

    /// Injections handed to the [`FailureJudge`]: the lanes whose watched
    /// outputs deviated from golden.
    pub fn judge_calls(&self) -> u64 {
        self.judge_calls
    }

    /// Injections tallied `Benign` without a judge call because their
    /// watched outputs never left golden.
    pub fn judge_golden_lanes(&self) -> u64 {
        self.judge_golden_lanes
    }
}

/// Reusable per-thread simulation buffers: state, input frame, output
/// trace, convergence bookkeeping and the injection schedule. One scratch
/// ([`Campaign::point_scratch`]) serves any number of points and batches
/// — the batch loop allocates nothing.
pub struct PointScratch {
    state: SimState,
    frame: InputFrame,
    trace: OutputTrace,
    converged_at: Vec<Option<u64>>,
    /// Per-batch `(cycle, lane mask)` schedule, sorted by cycle with
    /// duplicate cycles merged — replaces a per-cycle rescan of every
    /// lane's injection time.
    schedule: Vec<(u64, u64)>,
    /// Event-driven worklist state for the frontier evaluation path,
    /// re-attached per batch (re-sizing is a no-op between same-cone
    /// batches).
    frontier: ffr_sim::FrontierScratch,
}

/// A prepared fault-injection campaign: compiled circuit, stimulus, watch
/// list, judge, and the golden reference run.
///
/// The campaign object is immutable and `Sync`; per-flip-flop work is
/// dispatched from [`Campaign::run`] (sequential) or
/// [`Campaign::run_parallel`] (rayon).
pub struct Campaign<'a, S, J> {
    cc: &'a CompiledCircuit,
    stimulus: &'a S,
    watch: &'a WatchList,
    judge: &'a J,
    golden: GoldenRun,
    /// Golden per-cycle all-nets journal, captured lazily on the first
    /// cone-restricted batch (one extra full-speed golden replay,
    /// amortised over the whole campaign) and shared by every worker
    /// thread.
    net_journal: OnceLock<NetJournal>,
}

impl<'a, S, J> Campaign<'a, S, J>
where
    S: Stimulus + Sync,
    J: FailureJudge,
{
    /// Capture the golden run and prepare the campaign.
    pub fn new(
        cc: &'a CompiledCircuit,
        stimulus: &'a S,
        watch: &'a WatchList,
        judge: &'a J,
    ) -> Campaign<'a, S, J> {
        let golden = GoldenRun::capture(cc, stimulus, watch);
        Campaign::with_golden(cc, stimulus, watch, judge, golden)
    }

    /// Prepare the campaign around an already-captured golden run (e.g. one
    /// served from an artifact store instead of re-simulated).
    ///
    /// The golden run must have been captured for exactly this circuit,
    /// stimulus and watch list; the constructor checks the cheap structural
    /// invariants (cycle count, trace width).
    pub fn with_golden(
        cc: &'a CompiledCircuit,
        stimulus: &'a S,
        watch: &'a WatchList,
        judge: &'a J,
        golden: GoldenRun,
    ) -> Campaign<'a, S, J> {
        assert_eq!(
            golden.journal.cycles(),
            stimulus.num_cycles(),
            "golden run was captured for a different testbench length"
        );
        assert_eq!(
            golden.trace.width(),
            watch.len(),
            "golden run was captured for a different watch list"
        );
        Campaign {
            cc,
            stimulus,
            watch,
            judge,
            golden,
            net_journal: OnceLock::new(),
        }
    }

    /// The golden reference run (reused for feature extraction).
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The golden all-nets journal backing cone-restricted simulation,
    /// capturing it on first use.
    pub fn net_journal(&self) -> &NetJournal {
        self.net_journal
            .get_or_init(|| NetJournal::capture(self.cc, &self.stimulus))
    }

    /// The compiled circuit under test.
    pub fn circuit(&self) -> &CompiledCircuit {
        self.cc
    }

    /// Inject the planned faults for one flip-flop and classify every run.
    pub fn run_ff(&self, ff: FfId, config: &CampaignConfig) -> FfCampaignResult {
        FfCampaignResult::new(ff, self.run_planned(InjectionPoint::Seu(ff), config))
    }

    /// Inject the planned faults for one combinational net and classify
    /// every run (the SET fault model).
    pub fn run_net(&self, net: NetId, config: &CampaignConfig) -> NetSetResult {
        NetSetResult::new(net, self.run_planned(InjectionPoint::Set(net), config))
    }

    /// Run the full planned campaign for one injection point.
    fn run_planned(
        &self,
        point: InjectionPoint,
        config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        let times = sample_injection_times(
            config.seed,
            point.stream(),
            config.window.clone(),
            config.injections_per_ff,
        );
        self.run_point_times(point, &times, config)
    }

    /// Inject exactly the given fault times into one flip-flop and return
    /// the per-class tallies (indexed like [`FailureClass::ALL`]).
    ///
    /// Equivalent to [`Campaign::run_point_times`] with
    /// [`InjectionPoint::Seu`]; kept as the stable SEU entry point.
    ///
    /// [`sample_injection_times`]: crate::sample_injection_times
    pub fn run_ff_times(
        &self,
        ff: FfId,
        times: &[u64],
        config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        self.run_point_times(InjectionPoint::Seu(ff), times, config)
    }

    /// Inject exactly the given fault times into one injection point and
    /// return the per-class tallies (indexed like [`FailureClass::ALL`]).
    ///
    /// This is the resumable unit of campaign work for both fault models:
    /// a caller that owns the full injection plan (from
    /// [`sample_injection_times`] on [`InjectionPoint::stream`]) can run
    /// any slice of it, persist the accumulated tallies, and continue
    /// later — the tallies of two slices simply add. Classification
    /// batches the times into 64-lane groups internally, so slicing at
    /// multiples of 64 reproduces the one-shot run exactly; tallies are
    /// order-insensitive, so any slicing yields the same totals.
    ///
    /// [`sample_injection_times`]: crate::sample_injection_times
    pub fn run_point_times(
        &self,
        point: InjectionPoint,
        times: &[u64],
        config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        let mut runner = self.point_runner(point);
        let mut scratch = self.point_scratch();
        self.run_point_times_with(&mut runner, &mut scratch, times, config)
    }

    /// Compile an injection point for repeated batch simulation: resolve
    /// the target, extract its fan-out cone and classify the watched
    /// outputs as in-cone or provably golden.
    pub fn point_runner(&self, point: InjectionPoint) -> PointRunner {
        let (compiled, cone) = match point {
            InjectionPoint::Seu(ff) => (CompiledPoint::Seu(ff), self.cc.ff_cone(ff)),
            InjectionPoint::Set(net) => (
                CompiledPoint::Set(self.cc.fault_site(net)),
                self.cc.net_cone(net),
            ),
        };
        let watch_in_cone = self
            .watch
            .indices()
            .iter()
            .map(|&po| cone.may_differ(self.cc.output_net(po)))
            .collect();
        PointRunner {
            point: compiled,
            cone,
            watch_in_cone,
            cycles_saved: 0,
            frontier_ops_evaluated: 0,
            frontier_cycles: 0,
            frontier_peak: 0,
            dense_cycles: 0,
            judge_calls: 0,
            judge_golden_lanes: 0,
        }
    }

    /// Allocate the reusable per-thread simulation buffers once; hand the
    /// same scratch to every [`Campaign::run_point_times_with`] call on
    /// the thread.
    pub fn point_scratch(&self) -> PointScratch {
        PointScratch {
            state: SimState::new(self.cc),
            frame: InputFrame::new(self.cc.num_inputs()),
            trace: OutputTrace::new(0, 0, 0),
            converged_at: Vec::new(),
            schedule: Vec::new(),
            frontier: ffr_sim::FrontierScratch::new(),
        }
    }

    /// [`Campaign::run_point_times`] against a pre-compiled
    /// [`PointRunner`] and reusable [`PointScratch`] — the zero-allocation
    /// resumable unit of campaign work. Tallies are identical to the
    /// one-shot entry point.
    pub fn run_point_times_with(
        &self,
        runner: &mut PointRunner,
        scratch: &mut PointScratch,
        times: &[u64],
        config: &CampaignConfig,
    ) -> [usize; FailureClass::ALL.len()] {
        let mut class_counts = [0usize; FailureClass::ALL.len()];
        for chunk in times.chunks(64) {
            self.simulate_batch_into(runner, scratch, chunk, config);
            // Lanes whose watched outputs never leave golden are Benign by
            // the `FailureJudge` contract: only the others reach the judge.
            let mut deviating =
                deviating_lanes(&self.golden.trace, &scratch.trace, &scratch.converged_at);
            let golden_lanes = chunk.len() - deviating.count_ones() as usize;
            class_counts[FailureClass::Benign.tally_index()] += golden_lanes;
            runner.judge_golden_lanes += golden_lanes as u64;
            let golden_view = LaneView::golden(&self.golden.trace);
            while deviating != 0 {
                let lane = deviating.trailing_zeros() as usize;
                deviating &= deviating - 1;
                let view = LaneView::faulty(
                    &self.golden.trace,
                    &scratch.trace,
                    lane,
                    scratch.converged_at[lane],
                );
                let class = self.judge.classify(&golden_view, &view, chunk[lane]);
                class_counts[class.tally_index()] += 1;
                runner.judge_calls += 1;
            }
        }
        class_counts
    }

    /// Simulate up to 64 injections into one point (one per lane) into
    /// `scratch`: the faulty output trace and, per lane, the cycle from
    /// which the state provably equals golden again (`None` if it never
    /// re-converged).
    ///
    /// One loop serves every evaluation mode ([`Eval`]). With
    /// `config.cone` set (the default) only the point's fan-out cone is
    /// evaluated, event-driven: boundary nets come from the golden
    /// [`NetJournal`] (which also supplies the primary inputs, so the
    /// stimulus is not replayed at all), only cone flip-flops tick and
    /// watched outputs outside the cone stay golden. The resulting trace
    /// and convergence data are bit-identical to the whole-circuit
    /// [`Eval::Full`] oracle — non-cone state provably cannot deviate
    /// from golden.
    fn simulate_batch_into(
        &self,
        runner: &mut PointRunner,
        scratch: &mut PointScratch,
        times: &[u64],
        config: &CampaignConfig,
    ) {
        debug_assert!(!times.is_empty() && times.len() <= 64);
        let end = self.stimulus.num_cycles();
        let t0 = *times.iter().min().expect("non-empty batch");
        debug_assert!(t0 < end, "injection beyond testbench end");

        let PointScratch {
            state,
            frame,
            trace,
            converged_at,
            schedule,
            frontier,
        } = scratch;
        let cone = &runner.cone;
        converged_at.clear();
        converged_at.resize(times.len(), None);

        fill_schedule(schedule, times);
        let active = u64::MAX >> (64 - times.len());
        let mut pending = active; // lanes whose fault has not happened yet
        let mut converged = 0u64; // lanes whose state returned to golden
        let mut next_fault = 0usize;

        // Seed the faulty trace with the golden trace in one bulk copy:
        // the cone modes overwrite only rows where a watched output can
        // deviate, and fast-forwarded spans need no trace writes at all.
        trace.reset_from(&self.golden.trace, t0);
        let mut mode = if config.cone {
            // Nothing is loaded up front: before the first injection
            // every cone net is clean (golden by construction), so the
            // pre-injection prefix costs zero op evaluations.
            frontier.attach(cone);
            Eval::Frontier(self.net_journal())
        } else {
            // Reset clears residue a forced source net may have left in
            // the reused state.
            state.reset(self.cc);
            state.load_ff_state_broadcast(self.cc, self.golden.journal.state_at(t0));
            Eval::Full
        };
        state.set_cycle(t0);
        let mut dense_cycles: u64 = 0;
        let mut cycle = t0;
        while cycle < end {
            let mut fault_mask = 0u64;
            while next_fault < schedule.len() && schedule[next_fault].0 == cycle {
                fault_mask |= schedule[next_fault].1;
                next_fault += 1;
            }
            pending &= !fault_mask;
            converged &= !fault_mask;
            let next = cycle + 1;
            // Convergence is recorded once every lane's fault happened.
            let record = config.early_exit && pending == 0 && next < end;

            // Inject (SEU: flip the state entering the cycle; SET: XOR-force
            // the net for this evaluation), evaluate, record, tick, and
            // return the lanes differing from golden entering `next`.
            let diff = match mode {
                Eval::Frontier(journal) => {
                    let row = journal.row(cycle);
                    match runner.point {
                        CompiledPoint::Seu(_) if fault_mask != 0 => {
                            state.flip_frontier(cone, frontier, row, fault_mask);
                            state.eval_frontier(cone, frontier, row);
                        }
                        CompiledPoint::Set(_) if fault_mask != 0 => {
                            state.eval_forced_frontier(cone, frontier, row, fault_mask);
                        }
                        _ => state.eval_frontier(cone, frontier, row),
                    }
                    // Only nets on the live frontier can deviate.
                    if frontier.any_dirty() {
                        self.record_in_cone(runner, trace, state, cycle, |net| {
                            frontier.net_dirty(net)
                        });
                    }
                    // Row `next`'s Q nets hold the golden state entering
                    // `next`; the diff falls out of the latch loop.
                    state.tick_frontier(cone, frontier, (next < end).then(|| journal.row(next)))
                }
                Eval::Dense(journal) => {
                    dense_cycles += 1;
                    state.load_boundary(cone, journal.row(cycle));
                    match runner.point {
                        CompiledPoint::Seu(ff) if fault_mask != 0 => {
                            state.flip_ff(self.cc, ff, fault_mask);
                            state.eval_cone(cone);
                        }
                        CompiledPoint::Set(_) if fault_mask != 0 => {
                            state.eval_forced_cone(cone, fault_mask);
                        }
                        _ => state.eval_cone(cone),
                    }
                    self.record_in_cone(runner, trace, state, cycle, |_| true);
                    state.tick_cone(cone);
                    // Diffed every cycle: quiescence also ends dense mode.
                    if next < end {
                        state.diff_lanes_cone(cone, self.golden.journal.state_at(next))
                    } else {
                        0
                    }
                }
                Eval::Full => {
                    frame.clear();
                    self.stimulus.drive(cycle, frame);
                    frame.apply(self.cc, state);
                    match runner.point {
                        CompiledPoint::Seu(ff) if fault_mask != 0 => {
                            state.flip_ff(self.cc, ff, fault_mask);
                            state.eval(self.cc);
                        }
                        CompiledPoint::Set(site) if fault_mask != 0 => {
                            state.eval_forced_site(self.cc, site, fault_mask);
                        }
                        _ => state.eval(self.cc),
                    }
                    trace.record(self.cc, self.watch, state);
                    state.tick(self.cc);
                    // The oracle never fast-forwards: diff only to record.
                    if record {
                        state.diff_lanes(self.cc, self.golden.journal.state_at(next))
                    } else {
                        0
                    }
                }
            };

            cycle = next;
            if record {
                let newly = active & !diff & !converged;
                if newly != 0 {
                    for (lane, at) in converged_at.iter_mut().enumerate() {
                        if newly & (1u64 << lane) != 0 {
                            *at = Some(next);
                        }
                    }
                    converged |= newly;
                }
                if converged == active {
                    break;
                }
            }
            let journal = match mode {
                Eval::Frontier(journal) | Eval::Dense(journal) if cycle < end => journal,
                _ => continue,
            };
            if diff == 0 {
                // Every lane equals golden again: all cone nets clean is
                // the frontier invariant, so leaving dense mode only clears
                // the scratch. Nothing changes before the next injection:
                // fast-forward (the skipped trace is golden, and with
                // `pending == 0` we broke out above or never record).
                frontier.quiesce();
                mode = Eval::Frontier(journal);
                cycle = if pending != 0 {
                    schedule[next_fault].0
                } else if !config.early_exit {
                    end
                } else {
                    cycle
                };
                state.set_cycle(cycle);
            } else if matches!(mode, Eval::Frontier(_))
                && frontier.last_cycle_ops() as usize * DENSE_ADOPTION_DIVISOR >= cone.num_ops()
            {
                // Wide divergence: refresh touched-but-clean nets from
                // golden and evaluate the whole cone until it damps out.
                state.adopt_frontier(cone, frontier, journal.row(cycle));
                frontier.quiesce();
                mode = Eval::Dense(journal);
            }
        }

        runner.cycles_saved += end - cycle;
        runner.dense_cycles += dense_cycles;
        if config.cone {
            runner.frontier_cycles += cycle - t0;
            runner.frontier_ops_evaluated +=
                frontier.ops_evaluated() + dense_cycles * cone.num_ops() as u64;
            runner.frontier_peak = runner.frontier_peak.max(frontier.peak());
            if dense_cycles > 0 {
                runner.frontier_peak = runner.frontier_peak.max(cone.num_ops() as u32);
            }
        }
    }

    /// Write the current value of every in-cone watched output for which
    /// `live(net)` holds into the faulty trace row of `cycle`; every other
    /// entry keeps its golden seed.
    fn record_in_cone(
        &self,
        runner: &PointRunner,
        trace: &mut OutputTrace,
        state: &SimState,
        cycle: u64,
        live: impl Fn(NetId) -> bool,
    ) {
        let row = trace.row_mut(cycle);
        for (w, (&po, &in_cone)) in self
            .watch
            .indices()
            .iter()
            .zip(&runner.watch_in_cone)
            .enumerate()
        {
            if in_cone && live(self.cc.output_net(po)) {
                row[w] = state.output_word(self.cc, po);
            }
        }
    }

    /// Run the full flat campaign over every flip-flop, sequentially.
    pub fn run(&self, config: &CampaignConfig) -> FdrTable {
        let results = self
            .all_ffs()
            .map(|ff| self.run_ff(ff, config))
            .collect::<Vec<_>>();
        FdrTable::from_results(self.cc.num_ffs(), results, config.injections_per_ff)
    }

    /// Run the full flat campaign with rayon worker threads.
    pub fn run_parallel(&self, config: &CampaignConfig) -> FdrTable {
        self.run_parallel_subset(&self.all_ffs().collect::<Vec<_>>(), config, |_, _| {})
    }

    /// Run the campaign for a subset of flip-flops (e.g. only the training
    /// set of the ML flow), in parallel, with a progress callback
    /// `(done, total)`.
    pub fn run_parallel_subset(
        &self,
        ffs: &[FfId],
        config: &CampaignConfig,
        progress: impl Fn(usize, usize) + Sync,
    ) -> FdrTable {
        let done = AtomicUsize::new(0);
        let total = ffs.len();
        let results: Vec<FfCampaignResult> = ffs
            .par_iter()
            .map(|&ff| {
                let r = self.run_ff(ff, config);
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(d, total);
                r
            })
            .collect();
        FdrTable::from_results(self.cc.num_ffs(), results, config.injections_per_ff)
    }

    /// Run a flat SET campaign over the given nets (typically
    /// [`CompiledCircuit::comb_output_nets`]), in parallel, with a
    /// progress callback `(done, total)`.
    pub fn run_set_parallel(
        &self,
        nets: &[NetId],
        config: &CampaignConfig,
        progress: impl Fn(usize, usize) + Sync,
    ) -> SetDeratingTable {
        let done = AtomicUsize::new(0);
        let total = nets.len();
        let results: Vec<NetSetResult> = nets
            .par_iter()
            .map(|&net| {
                let r = self.run_net(net, config);
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(d, total);
                r
            })
            .collect();
        SetDeratingTable::from_results(results, config.injections_per_ff)
    }

    fn all_ffs(&self) -> impl Iterator<Item = FfId> {
        (0..self.cc.num_ffs()).map(FfId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::OutputMismatchJudge;
    use ffr_netlist::NetlistBuilder;

    /// A circuit with a sharply bimodal FDR population: a live data path
    /// (every upset visible) and a dead register (never visible).
    fn probe_circuit() -> CompiledCircuit {
        let mut b = NetlistBuilder::new("probe");
        let en = b.input("en", 1);
        // Live path: counter driving outputs.
        let live = b.reg("live", 4);
        let next = b.inc(&live.q());
        b.connect_en(&live, &en, &next).unwrap();
        b.output("value", &live.q());
        // Dead register: toggles but drives nothing observable.
        let dead = b.reg("dead", 4);
        let dnext = b.inc(&dead.q());
        b.connect(&dead, &dnext).unwrap();
        // Keep `dead` from being optimised away conceptually: reduce it
        // into a net that is ANDed with constant 0 before the output.
        let red = b.reduce_xor(&dead.q());
        let zero = b.zero_bit();
        let masked = b.and(&red, &zero);
        let out = b.or(&live.q().bit(0), &masked);
        b.output("mixed", &out);
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    struct AlwaysOn;

    impl Stimulus for AlwaysOn {
        fn num_cycles(&self) -> u64 {
            120
        }

        fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
            frame.set(0, true);
        }
    }

    #[test]
    fn live_ffs_fail_dead_ffs_do_not() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100)
            .with_injections(24)
            .with_seed(3);
        let table = campaign.run(&config);

        let netlist = cc.netlist();
        for (ff, _) in netlist.ffs() {
            let name = netlist.ff_name(ff).to_string();
            let fdr = table.fdr(ff).expect("full campaign covers all FFs");
            if name.starts_with("live") {
                assert!(
                    fdr > 0.9,
                    "live FF {name} should almost always fail, fdr={fdr}"
                );
            } else if name.starts_with("dead") {
                assert_eq!(fdr, 0.0, "dead FF {name} must be benign");
            }
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100)
            .with_injections(16)
            .with_seed(7);
        let seq = campaign.run(&config);
        let par = campaign.run_parallel(&config);
        for (ff, _) in cc.netlist().ffs() {
            assert_eq!(seq.fdr(ff), par.fdr(ff));
        }
    }

    #[test]
    fn early_exit_matches_full_simulation() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let mut fast = CampaignConfig::new(10..100)
            .with_injections(32)
            .with_seed(11);
        let mut slow = fast.clone();
        fast.early_exit = true;
        slow.early_exit = false;
        let a = campaign.run(&fast);
        let b = campaign.run(&slow);
        for (ff, _) in cc.netlist().ffs() {
            assert_eq!(a.fdr(ff), b.fdr(ff), "{}", cc.netlist().ff_name(ff));
        }
    }

    #[test]
    fn subset_campaign_covers_only_subset() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100).with_injections(8);
        let subset = vec![FfId::from_index(0), FfId::from_index(5)];
        let table = campaign.run_parallel_subset(&subset, &config, |_, _| {});
        assert!(table.fdr(FfId::from_index(0)).is_some());
        assert!(table.fdr(FfId::from_index(5)).is_some());
        assert!(table.fdr(FfId::from_index(1)).is_none());
        assert_eq!(table.covered().count(), 2);
    }

    #[test]
    fn injection_plans_are_reproducible_across_campaigns() {
        let cc = probe_circuit();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let config = CampaignConfig::new(10..100)
            .with_injections(16)
            .with_seed(5);
        let t1 = campaign.run(&config);
        let t2 = campaign.run(&config);
        for (ff, _) in cc.netlist().ffs() {
            assert_eq!(t1.fdr(ff), t2.fdr(ff));
        }
    }

    /// Feedback adder, cross-register XOR and parity: wide enough
    /// divergence that the hybrid adopts dense cone evaluation.
    fn feedback_circuit(width: usize) -> CompiledCircuit {
        let mut b = NetlistBuilder::new("feedback");
        let a = b.input("a", width);
        let en = b.input("en", 1);
        let r1 = b.reg("r1", width);
        let (sum, carry) = b.add(&r1.q(), &a);
        b.connect_en(&r1, &en, &sum).unwrap();
        let r2 = b.reg("r2", width);
        let x = b.xor(&r1.q(), &a);
        b.connect(&r2, &x).unwrap();
        let red = b.reduce_xor(&r2.q());
        b.output("sum", &r1.q());
        b.output("parity", &red);
        b.output("carry", &ffr_netlist::Bus::single(carry.net(0)));
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    /// Deterministic broadcast stimulus: a pure function of the cycle.
    struct MixStimulus {
        width: usize,
        cycles: u64,
    }

    impl Stimulus for MixStimulus {
        fn num_cycles(&self) -> u64 {
            self.cycles
        }

        fn drive(&self, cycle: u64, frame: &mut InputFrame) {
            let mut x = cycle
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x ^= x >> 29;
            for bit in 0..self.width {
                frame.set(bit, (x >> bit) & 1 == 1);
            }
            frame.set(self.width, (x >> 21) & 1 == 1);
        }
    }

    #[test]
    fn hybrid_adopts_dense_mode_and_matches_full_oracle() {
        let cc = feedback_circuit(4);
        let stim = MixStimulus {
            width: 4,
            cycles: 96,
        };
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);
        let mut scratch = campaign.point_scratch();
        let mut dense_cycles = 0;
        for early_exit in [true, false] {
            let mut config = CampaignConfig::new(8..88).with_injections(48).with_seed(19);
            config.early_exit = early_exit;
            for (ff, _) in cc.netlist().ffs() {
                let point = InjectionPoint::Seu(ff);
                let times = sample_injection_times(
                    config.seed,
                    point.stream(),
                    config.window.clone(),
                    config.injections_per_ff,
                );
                let mut runner = campaign.point_runner(point);
                let hybrid =
                    campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
                let full =
                    campaign.run_point_times(point, &times, &config.clone().with_cone(false));
                assert_eq!(hybrid, full, "{point:?} (early_exit={early_exit})");
                dense_cycles += runner.dense_cycles;
            }
        }
        assert!(dense_cycles > 0, "the fixture never entered dense mode");
    }

    /// Input-count-generic deterministic stimulus for corpus circuits:
    /// every input bit is a hash of `(cycle, bit)`.
    struct HashStimulus {
        inputs: usize,
        cycles: u64,
    }

    impl Stimulus for HashStimulus {
        fn num_cycles(&self) -> u64 {
            self.cycles
        }

        fn drive(&self, cycle: u64, frame: &mut InputFrame) {
            for bit in 0..self.inputs {
                let mut x = cycle
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((bit as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                x ^= x >> 31;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 29;
                frame.set(bit, x & 1 == 1);
            }
        }
    }

    /// The lanes whose [`LaneView::faulty`] differs from
    /// [`LaneView::golden`] on some cycle, one lane and one bit at a time.
    fn naive_deviating(
        golden: &OutputTrace,
        faulty: &OutputTrace,
        converged_at: &[Option<u64>],
    ) -> u64 {
        let golden_view = LaneView::golden(golden);
        let mut mask = 0u64;
        for (lane, &at) in converged_at.iter().enumerate() {
            let view = LaneView::faulty(golden, faulty, lane, at);
            let deviates = (0..golden_view.num_cycles()).any(|cycle| {
                (0..golden_view.width()).any(|w| golden_view.bit(w, cycle) != view.bit(w, cycle))
            });
            mask |= (deviates as u64) << lane;
        }
        mask
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The golden-lane prefilter is exactly "judge every lane": over
        /// sampled corpus circuits, both fault models, both evaluation
        /// paths and partial batches, `deviating_lanes` equals a per-lane
        /// `LaneView` comparison (also on traces with bits flipped at the
        /// edges of each lane's faulty window), and the tallies equal
        /// those of calling `classify` on every lane.
        #[test]
        fn prefilter_equals_judging_every_lane(
            kind in 0usize..7,
            size_a in proptest::prelude::any::<usize>(),
            size_b in proptest::prelude::any::<usize>(),
            structure_seed in proptest::prelude::any::<u64>(),
            seu in proptest::prelude::any::<bool>(),
            cone in proptest::prelude::any::<bool>(),
            early_exit in proptest::prelude::any::<bool>(),
            grace_cycles in 0u64..4,
            pick in 0usize..64,
            raw_times in proptest::collection::vec(0u64..1000, 1..100),
            cycles in 24u64..40,
            cuts in proptest::collection::vec(0u64..1 << 20, 64),
            flips in proptest::collection::vec(0usize..1 << 20, 0..8),
        ) {
            let spec = ffr_circuits::corpus::CorpusSpec::sampled(kind, size_a, size_b, structure_seed);
            let cc = CompiledCircuit::compile(spec.build()).unwrap();
            let stim = HashStimulus { inputs: cc.num_inputs(), cycles };
            let watch = WatchList::all(&cc);
            let judge = OutputMismatchJudge { grace_cycles };
            let campaign = Campaign::new(&cc, &stim, &watch, &judge);
            let point = if seu {
                InjectionPoint::Seu(FfId::from_index(pick % cc.num_ffs()))
            } else {
                let nets = cc.comb_output_nets();
                InjectionPoint::Set(nets[pick % nets.len()])
            };
            let times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();
            let mut config = CampaignConfig::new(0..cycles).with_cone(cone);
            config.early_exit = early_exit;

            let golden = &campaign.golden().trace;
            let golden_view = LaneView::golden(golden);
            let mut runner = campaign.point_runner(point);
            let mut scratch = campaign.point_scratch();
            let mut every_lane = [0usize; FailureClass::ALL.len()];
            for chunk in times.chunks(64) {
                campaign.simulate_batch_into(&mut runner, &mut scratch, chunk, &config);
                let (trace, converged_at) = (&scratch.trace, &scratch.converged_at);
                proptest::prop_assert_eq!(
                    deviating_lanes(golden, trace, converged_at),
                    naive_deviating(golden, trace, converged_at),
                    "{} {:?}", spec.id(), point
                );
                for (lane, &inject_cycle) in chunk.iter().enumerate() {
                    let view = LaneView::faulty(golden, trace, lane, converged_at[lane]);
                    every_lane[judge.classify(&golden_view, &view, inject_cycle).tally_index()] += 1;
                }

                // The same rule holds for any trace and any re-convergence
                // cycles: move some lanes' re-convergence, then flip bits in
                // the last faulty row, the first golden-served row, or any
                // row of a lane.
                let (start, end) = (trace.start(), trace.end());
                let mut golden_from = converged_at.clone();
                for (at, &cut) in golden_from.iter_mut().zip(&cuts) {
                    match cut % 3 {
                        0 => {}
                        1 => *at = None,
                        _ => *at = Some(start + cut / 3 % (end - start + 1)),
                    }
                }
                let mut flipped = trace.clone();
                for &flip in flips.iter().filter(|_| trace.width() > 0) {
                    let (lane, edge, r) = (flip % chunk.len(), flip / 64 % 3, flip / 192);
                    let last = golden_from[lane].unwrap_or(end);
                    let row = match edge {
                        0 if last > start => last - 1,
                        1 if last < end => last,
                        _ => start + (r as u64) % (end - start),
                    };
                    let w = r % trace.width();
                    flipped.set_word(w, row, flipped.word(w, row) ^ (1u64 << lane));
                }
                proptest::prop_assert_eq!(
                    deviating_lanes(golden, &flipped, &golden_from),
                    naive_deviating(golden, &flipped, &golden_from),
                    "{} {:?} golden_from {:?} flips {:?}", spec.id(), point, &golden_from, &flips
                );
            }
            let mut runner = campaign.point_runner(point);
            let prefiltered = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
            proptest::prop_assert_eq!(prefiltered, every_lane);
            proptest::prop_assert_eq!(
                runner.judge_calls() + runner.judge_golden_lanes(),
                times.len() as u64
            );
        }
    }
}
