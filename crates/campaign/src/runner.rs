//! The checkpointed campaign runner, generic over work distribution.
//!
//! Injection points (flip-flops for SEU campaigns, combinational nets for
//! SET campaigns) are claimed by worker threads in chunks from a
//! [`WorkSource`] — the in-process work-stealing
//! cursor for `ffr run`/`ffr resume`, or the store-backed
//! [`LeaseQueue`](crate::work::LeaseQueue) for multi-process `ffr worker`
//! draining. Per-point cost varies wildly once adaptive stopping and
//! early convergence exit are in play, so chunks are claimed dynamically
//! rather than split statically. Each worker runs one point's injection
//! plan in 64-injection batches, consulting the [`AdaptivePolicy`] after
//! every batch, and writes progress back into the shared
//! [`CampaignCheckpoint`]; every `checkpoint_every` retirements the
//! checkpoint is flushed through the caller's sink (typically
//! [`CampaignCheckpoint::save`], or per-shard flushes in worker mode).
//!
//! # Determinism
//!
//! A point's injection plan and stopping decisions depend only on
//! `(seed, point, window, policy)` — never on scheduling. The work source
//! decides *who* computes a point, never *what* it computes. Killing the
//! run at any moment and resuming from the last flushed checkpoint — or
//! draining the same campaign with any number of worker processes —
//! therefore produces a final [`FdrTable`](ffr_fault::FdrTable) (or
//! [`SetDeratingTable`](ffr_fault::SetDeratingTable)) bit-identical to an
//! uninterrupted single-process run; the integration tests assert this
//! byte-for-byte for both fault models and both deployment shapes.
//!
//! [`AdaptivePolicy`]: crate::adaptive::AdaptivePolicy

use crate::checkpoint::{CampaignCheckpoint, PointProgress};
use crate::work::{CursorSource, WorkSource};
use ffr_fault::{sample_injection_times, Campaign, CampaignConfig, FailureJudge, FaultKind};
use ffr_sim::Stimulus;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Apply the `FFR_EVAL` evaluation-path override to a campaign config:
/// `frontier` (default; the event-driven cone hybrid) or `full` (the
/// whole-circuit reference oracle). Evaluation paths are bit-identical by
/// construction, so the override is a pure performance knob — it is
/// deliberately *not* part of the campaign fingerprint and a checkpoint
/// written under one path resumes under any other.
fn apply_eval_override(config: CampaignConfig) -> CampaignConfig {
    match std::env::var("FFR_EVAL").as_deref() {
        Ok("full") => config.with_cone(false),
        Ok("frontier") | Err(_) => config,
        Ok(other) => {
            eprintln!(
                "warning: unknown FFR_EVAL={other:?} (expected frontier|full), using default"
            );
            config
        }
    }
}

/// Cooperative cancellation handle (cloneable; e.g. wired to Ctrl-C).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A token that has not been cancelled.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation; workers stop at the next batch boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Runner tuning knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Flush the checkpoint after this many point retirements.
    pub checkpoint_every: usize,
    /// Injection points claimed per work-steal (small = better balance,
    /// large = less cursor contention).
    pub steal_chunk: usize,
    /// Self-cancel after retiring this many points in this invocation
    /// (test/CLI hook for simulating a killed run).
    pub stop_after_points: Option<usize>,
    /// Telemetry sink for per-chunk spans, injection counters and
    /// retire-reason counts (disabled by default; never affects results).
    pub recorder: ffr_obs::Recorder,
}

impl Default for RunnerOptions {
    fn default() -> RunnerOptions {
        RunnerOptions {
            threads: None,
            checkpoint_every: 32,
            steal_chunk: 4,
            stop_after_points: None,
            recorder: ffr_obs::Recorder::disabled(),
        }
    }
}

/// How a [`run_resumable`] / [`run_with_source`] invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every injection point is retired; the checkpoint holds the full
    /// campaign.
    Complete,
    /// Cancelled (token or `stop_after_points`); the checkpoint holds a
    /// resumable partial campaign.
    Cancelled,
    /// The work source is drained but this process's checkpoint is not
    /// complete: other workers computed (or are publishing) the remaining
    /// points. Only distributed sources produce this — the caller should
    /// merge the on-disk shards to obtain the full campaign.
    Drained,
}

struct Shared<'a, Sink> {
    checkpoint: &'a mut CampaignCheckpoint,
    sink: Sink,
    /// Running count of complete points (kept in sync so per-retirement
    /// progress reporting stays O(1) instead of rescanning the list).
    completed: usize,
    retired_since_flush: usize,
    retired_this_run: usize,
    io_error: Option<io::Error>,
}

impl<Sink: FnMut(&CampaignCheckpoint) -> io::Result<()>> Shared<'_, Sink> {
    fn flush(&mut self) {
        if self.io_error.is_some() {
            return;
        }
        if let Err(e) = (self.sink)(self.checkpoint) {
            self.io_error = Some(e);
        }
        self.retired_since_flush = 0;
    }
}

/// Drive a checkpointed campaign (fresh or resumed) to completion or
/// cancellation, claiming work off the in-process work-stealing cursor.
///
/// `sink` is invoked with the current checkpoint under the progress lock —
/// it must not call back into the runner. `progress` receives
/// `(retired_points, total_points)` after every retirement.
///
/// # Errors
///
/// Propagates the first error the sink reports (workers drain and stop).
///
/// # Panics
///
/// Panics if the checkpoint's injection points do not fit the campaign's
/// circuit.
pub fn run_resumable<S, J>(
    campaign: &Campaign<'_, S, J>,
    checkpoint: &mut CampaignCheckpoint,
    options: &RunnerOptions,
    cancel: &CancelToken,
    sink: impl FnMut(&CampaignCheckpoint) -> io::Result<()> + Send,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunOutcome>
where
    S: Stimulus + Sync,
    J: FailureJudge,
{
    let source = CursorSource::new(checkpoint, options.steal_chunk);
    run_with_source(
        campaign, checkpoint, &source, options, cancel, sink, progress,
    )
}

/// Drive a checkpointed campaign with an explicit [`WorkSource`] — the
/// generic engine behind [`run_resumable`] (cursor source) and
/// `ffr worker` ([`LeaseQueue`](crate::work::LeaseQueue)).
///
/// Worker threads claim chunks of point indices from `source`, let it
/// [`hydrate`](WorkSource::hydrate) externally persisted progress for the
/// chunk, run each not-yet-retired point's injection plan, and notify the
/// source via [`chunk_done`](WorkSource::chunk_done) once the whole chunk
/// is retired. `sink` flushes the checkpoint every `checkpoint_every`
/// retirements and once at the end.
///
/// # Errors
///
/// Propagates the first error the sink or the work source reports. On any
/// error the cancel token is triggered so blocking sources (a lease queue
/// polling for other workers) unwind promptly.
///
/// # Panics
///
/// Panics if the checkpoint's injection points do not fit the campaign's
/// circuit.
pub fn run_with_source<S, J, W>(
    campaign: &Campaign<'_, S, J>,
    checkpoint: &mut CampaignCheckpoint,
    source: &W,
    options: &RunnerOptions,
    cancel: &CancelToken,
    sink: impl FnMut(&CampaignCheckpoint) -> io::Result<()> + Send,
    progress: impl Fn(usize, usize) + Sync,
) -> io::Result<RunOutcome>
where
    S: Stimulus + Sync,
    J: FailureJudge,
    W: WorkSource,
{
    // Budgeted campaigns cover a point subset, so the guard is on point
    // ids fitting the circuit, not on an exact count match.
    match checkpoint.params.fault {
        FaultKind::Seu => assert!(
            checkpoint
                .points
                .iter()
                .all(|p| (p.point as usize) < campaign.circuit().num_ffs()),
            "SEU checkpoint targets flip-flops beyond this circuit"
        ),
        FaultKind::Set => assert!(
            checkpoint
                .points
                .iter()
                .all(|p| (p.point as usize) < campaign.circuit().netlist().num_nets()),
            "SET checkpoint targets nets beyond this circuit"
        ),
    }
    let params = checkpoint.params.clone();
    let policy = params.policy.clone();
    let config = apply_eval_override(
        CampaignConfig::new(params.window_start..params.window_end)
            .with_injections(policy.max_injections)
            .with_seed(params.seed),
    );

    let total = checkpoint.num_points;
    if checkpoint.is_complete() {
        return Ok(RunOutcome::Complete);
    }

    let threads = options
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, source.parallelism_hint());
    let shared = Mutex::new(Shared {
        completed: checkpoint.completed_points(),
        checkpoint: &mut *checkpoint,
        sink,
        retired_since_flush: 0,
        retired_this_run: 0,
        io_error: None,
    });
    // Record an error and wake everything up: blocking sources poll the
    // cancel token, so a sink/source failure must trip it to unwind.
    let fail = |guard: &mut Shared<'_, _>, e: io::Error| {
        if guard.io_error.is_none() {
            guard.io_error = Some(e);
        }
        cancel.cancel();
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Simulation buffers are allocated once per worker thread
                // and reused across every point and batch it processes.
                let mut scratch = campaign.point_scratch();
                loop {
                    if cancel.is_cancelled() {
                        return;
                    }
                    let chunk = match source.claim() {
                        Ok(c) => c,
                        Err(e) => {
                            fail(&mut shared.lock().expect("progress lock poisoned"), e);
                            return;
                        }
                    };
                    if chunk.is_empty() {
                        return;
                    }
                    // One span per claimed chunk: the `range.run` records are
                    // what `ffr stats` sums into injections/sec. Disabled
                    // recorders skip the clock entirely.
                    let mut range_span = options.recorder.span("range.run");
                    let mut chunk_injections = 0u64;
                    {
                        // Overlay externally persisted progress (another
                        // worker's shard) before touching the chunk.
                        let mut guard = shared.lock().expect("progress lock poisoned");
                        if guard.io_error.is_some() {
                            return;
                        }
                        let complete_in = |cp: &CampaignCheckpoint| {
                            chunk.iter().filter(|&&i| cp.points[i].complete).count()
                        };
                        let before = complete_in(guard.checkpoint);
                        if let Err(e) = source.hydrate(&chunk, guard.checkpoint) {
                            fail(&mut guard, e);
                            return;
                        }
                        guard.completed += complete_in(guard.checkpoint) - before;
                    }
                    let mut chunk_retired = true;
                    for &point_index in &chunk {
                        if cancel.is_cancelled() {
                            chunk_retired = false;
                            break;
                        }
                        // Snapshot this point's progress. Only one worker of
                        // this process ever touches a given point (the source
                        // hands out disjoint chunks), so the snapshot cannot
                        // go stale.
                        let (mut record, point): (PointProgress, _) = {
                            let guard = shared.lock().expect("progress lock poisoned");
                            if guard.io_error.is_some() {
                                return;
                            }
                            (
                                guard.checkpoint.points[point_index].clone(),
                                guard.checkpoint.point(point_index),
                            )
                        };
                        if record.complete {
                            // Already retired (hydrated from another worker's
                            // shard): nothing to compute.
                            continue;
                        }
                        let injections_before = record.injections_done;
                        let times = sample_injection_times(
                            params.seed,
                            point.stream(),
                            params.window_start..params.window_end,
                            policy.max_injections,
                        );
                        // Fan-out cone compiled once per point; every batch of
                        // this point reuses it (and the thread's scratch).
                        let mut point_runner = campaign.point_runner(point);
                        options.recorder.count("cone.points", 1);
                        options
                            .recorder
                            .count("cone.ops", point_runner.cone_ops() as u64);
                        options
                            .recorder
                            .count("cone.ffs", point_runner.cone_ffs() as u64);
                        options.recorder.count(
                            "cone.boundary_nets",
                            point_runner.cone_boundary_nets() as u64,
                        );
                        while !policy.is_settled(record.failures(), record.injections_done) {
                            if cancel.is_cancelled() {
                                break;
                            }
                            let batch = policy.next_batch(record.injections_done);
                            if batch == 0 {
                                break;
                            }
                            let slice =
                                &times[record.injections_done..record.injections_done + batch];
                            let counts = campaign.run_point_times_with(
                                &mut point_runner,
                                &mut scratch,
                                slice,
                                &config,
                            );
                            record.absorb(&counts, batch);
                        }
                        options
                            .recorder
                            .count("cone.cycles_saved", point_runner.cycles_saved());
                        options.recorder.count(
                            "frontier.ops_evaluated",
                            point_runner.frontier_ops_evaluated(),
                        );
                        options
                            .recorder
                            .count("frontier.ops_skipped", point_runner.frontier_ops_skipped());
                        options
                            .recorder
                            .count("frontier.peak", point_runner.frontier_peak() as u64);
                        options
                            .recorder
                            .count("judge.calls", point_runner.judge_calls());
                        options
                            .recorder
                            .count("judge.golden_lanes", point_runner.judge_golden_lanes());
                        record.complete =
                            policy.is_settled(record.failures(), record.injections_done);

                        let injection_delta = (record.injections_done - injections_before) as u64;
                        chunk_injections += injection_delta;
                        options.recorder.count("injections", injection_delta);
                        if record.complete {
                            // Retire-reason split: did the adaptive policy stop
                            // early, or did the point exhaust its budget?
                            if record.injections_done >= policy.max_injections {
                                options.recorder.count("retire.max_injections", 1);
                            } else {
                                options.recorder.count("retire.early_settled", 1);
                            }
                        }

                        // Publish progress; flush and report on retirement.
                        let mut guard = shared.lock().expect("progress lock poisoned");
                        let retired = record.complete;
                        guard.checkpoint.points[point_index] = record;
                        if retired {
                            guard.retired_since_flush += 1;
                            guard.retired_this_run += 1;
                            guard.completed += 1;
                            progress(guard.completed, total);
                            if guard.retired_since_flush >= options.checkpoint_every {
                                guard.flush();
                            }
                            if let Some(limit) = options.stop_after_points {
                                if guard.retired_this_run >= limit {
                                    cancel.cancel();
                                }
                            }
                        } else {
                            chunk_retired = false;
                            // Partial progress only happens on cancellation;
                            // make sure it reaches disk.
                            guard.flush();
                        }
                        if let Some(e) = guard.io_error.take() {
                            fail(&mut guard, e);
                            return;
                        }
                    }
                    range_span.field("points", chunk.len());
                    range_span.field("injections", chunk_injections);
                    range_span.field("retired", chunk_retired);
                    drop(range_span);
                    if chunk_retired {
                        let mut guard = shared.lock().expect("progress lock poisoned");
                        if let Err(e) = source.chunk_done(&chunk, guard.checkpoint) {
                            fail(&mut guard, e);
                            return;
                        }
                    }
                }
            });
        }
    });

    let mut shared = shared.into_inner().expect("progress lock poisoned");
    // Final flush: persist the terminal state (complete, cancelled or
    // drained).
    shared.flush();
    if let Some(e) = shared.io_error {
        return Err(e);
    }
    Ok(if shared.checkpoint.is_complete() {
        RunOutcome::Complete
    } else if cancel.is_cancelled() {
        RunOutcome::Cancelled
    } else {
        RunOutcome::Drained
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptivePolicy;
    use crate::checkpoint::CheckpointParams;
    use ffr_circuits::small;
    use ffr_fault::OutputMismatchJudge;
    use ffr_sim::{CompiledCircuit, InputFrame, WatchList};

    struct AlwaysOn;

    impl Stimulus for AlwaysOn {
        fn num_cycles(&self) -> u64 {
            150
        }

        fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
            frame.set(0, true);
        }
    }

    fn checkpoint_for(cc: &CompiledCircuit, policy: AdaptivePolicy) -> CampaignCheckpoint {
        CampaignCheckpoint::fresh_seu(
            "test".into(),
            CheckpointParams {
                fault: FaultKind::Seu,
                seed: 11,
                window_start: 10,
                window_end: 120,
                policy,
            },
            cc.num_ffs(),
        )
    }

    fn set_checkpoint_for(cc: &CompiledCircuit, policy: AdaptivePolicy) -> CampaignCheckpoint {
        CampaignCheckpoint::fresh_set(
            "test".into(),
            CheckpointParams {
                fault: FaultKind::Set,
                seed: 11,
                window_start: 10,
                window_end: 120,
                policy,
            },
            &cc.comb_output_nets(),
        )
    }

    #[test]
    fn complete_run_matches_classic_campaign() {
        // A fixed-budget resumable run must reproduce Campaign::run
        // exactly (same plans, same tallies).
        let cc = CompiledCircuit::compile(small::lfsr_pipeline(4, 2)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);

        let mut cp = checkpoint_for(&cc, AdaptivePolicy::fixed(128));
        let outcome = run_resumable(
            &campaign,
            &mut cp,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome, RunOutcome::Complete);
        let resumable = cp.to_fdr_table();

        let classic = campaign.run(
            &CampaignConfig::new(10..120)
                .with_injections(128)
                .with_seed(11),
        );
        for (ff, _) in cc.netlist().ffs() {
            assert_eq!(resumable.fdr(ff), classic.fdr(ff));
            assert_eq!(
                resumable.result(ff).unwrap().failures(),
                classic.result(ff).unwrap().failures()
            );
        }
    }

    #[test]
    fn cancelled_run_resumes_to_identical_table() {
        let cc = CompiledCircuit::compile(small::alu_circuit(4)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let policy = AdaptivePolicy::adaptive(64, 256, 0.05);

        // Uninterrupted reference.
        let mut reference = checkpoint_for(&cc, policy.clone());
        run_resumable(
            &campaign,
            &mut reference,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();

        // Killed after 3 retirements, then resumed.
        let mut cp = checkpoint_for(&cc, policy);
        let outcome = run_resumable(
            &campaign,
            &mut cp,
            &RunnerOptions {
                stop_after_points: Some(3),
                threads: Some(2),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome, RunOutcome::Cancelled);
        assert!(cp.completed_points() >= 3);
        assert!(!cp.is_complete());

        let outcome = run_resumable(
            &campaign,
            &mut cp,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome, RunOutcome::Complete);
        assert_eq!(cp, reference, "resume must be bit-identical");
    }

    #[test]
    fn set_campaign_runs_resumable_and_matches_one_shot() {
        // The unified runner must reproduce the one-shot SET campaign
        // exactly, and a cancelled SET run must resume bit-identically.
        let cc = CompiledCircuit::compile(small::counter_circuit(5)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let policy = AdaptivePolicy::fixed(96);

        let mut reference = set_checkpoint_for(&cc, policy.clone());
        let outcome = run_resumable(
            &campaign,
            &mut reference,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome, RunOutcome::Complete);
        let resumable = reference.to_set_table();

        // One-shot engine on the same nets, same seed/window.
        let config = ffr_fault::CampaignConfig::new(10..120)
            .with_injections(96)
            .with_seed(11);
        let one_shot = campaign.run_set_parallel(&cc.comb_output_nets(), &config, |_, _| {});
        assert_eq!(resumable, one_shot);

        // Kill after 2 retirements, resume, compare checkpoints.
        let mut cp = set_checkpoint_for(&cc, policy);
        let outcome = run_resumable(
            &campaign,
            &mut cp,
            &RunnerOptions {
                stop_after_points: Some(2),
                threads: Some(2),
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome, RunOutcome::Cancelled);
        run_resumable(
            &campaign,
            &mut cp,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(cp, reference, "SET resume must be bit-identical");
    }

    #[test]
    fn adaptive_policy_spends_fewer_injections() {
        let cc = CompiledCircuit::compile(small::traffic_light()).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);

        let mut fixed = checkpoint_for(&cc, AdaptivePolicy::fixed(256));
        run_resumable(
            &campaign,
            &mut fixed,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();

        let mut adaptive = checkpoint_for(&cc, AdaptivePolicy::adaptive(64, 256, 0.06));
        run_resumable(
            &campaign,
            &mut adaptive,
            &RunnerOptions::default(),
            &CancelToken::new(),
            |_| Ok(()),
            |_, _| {},
        )
        .unwrap();

        assert!(adaptive.total_injections() < fixed.total_injections());
        // Settled flip-flops agree on the paper's binary split: a fully
        // benign FF under one policy is fully benign under the other.
        let tf = fixed.to_fdr_table();
        let ta = adaptive.to_fdr_table();
        for (ff, _) in cc.netlist().ffs() {
            let f = tf.fdr(ff).unwrap();
            let a = ta.fdr(ff).unwrap();
            assert!(
                (f - a).abs() < 0.15,
                "{}: fixed {f} vs adaptive {a}",
                cc.netlist().ff_name(ff)
            );
        }
    }

    #[test]
    fn sink_errors_propagate() {
        let cc = CompiledCircuit::compile(small::counter_circuit(4)).unwrap();
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
        let mut cp = checkpoint_for(&cc, AdaptivePolicy::fixed(64));
        let err = run_resumable(
            &campaign,
            &mut cp,
            &RunnerOptions {
                checkpoint_every: 1,
                ..RunnerOptions::default()
            },
            &CancelToken::new(),
            |_| Err(io::Error::other("disk full")),
            |_, _| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("disk full"));
    }
}
