//! The traced replay: the campaign runner's per-point loop and the
//! estimation stage re-driven through the program's public entry points,
//! with a timer around every call into a layer.
//!
//! Spans are not nested except where noted: the judge runs inside
//! `run_point_times_with`, so `fault.campaign.sim_s` is that call's time
//! minus the judge's. The layer times must therefore sum to no more than
//! the traced wall time; the rest is reported as
//! `trace.unattributed_s`, and a negative rest (a double count) fails the
//! replay.

use crate::{Finished, Workload};
use ffr_campaign::{
    run_resumable, session, ArtifactKind, ArtifactStore, CampaignCheckpoint, CancelToken,
    EstimateOptions, EstimateReport, FfEstimateRow, ModelReport, RunRequest, RunnerOptions,
    StoreKey,
};
use ffr_core::Estimation;
use ffr_fault::{
    sample_injection_times, Campaign, CampaignConfig, FailureClass, FailureJudge, FaultKind,
    FdrTable,
};
use ffr_features::FeatureMatrix;
use ffr_ml::model_selection::{grid_search, StratifiedKFold};
use ffr_sim::{GoldenRun, LaneView};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer busy time and counts of one traced pass, in memory until
/// the run prints them.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A [`FailureJudge`] that times every call of the judge it wraps.
struct TimedJudge<'a, J> {
    inner: &'a J,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl<'a, J> TimedJudge<'a, J> {
    fn new(inner: &'a J) -> Self {
        TimedJudge {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl<J: FailureJudge> FailureJudge for TimedJudge<'_, J> {
    fn classify(
        &self,
        golden: &LaneView<'_>,
        faulty: &LaneView<'_>,
        inject_cycle: u64,
    ) -> FailureClass {
        let t0 = Instant::now();
        let class = self.inner.classify(golden, faulty, inject_cycle);
        // Relaxed: plain statistics, read after the worker threads joined.
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        class
    }
}

/// How a campaign pass drives its points.
enum Driver {
    /// The runner's per-point loop, replayed on this thread.
    Replay,
    /// The runner itself ([`run_resumable`]) on this many threads.
    Runner(usize),
}

/// One traced campaign pass.
struct CampaignPass {
    layers: Layers,
    /// Prepare to written table.
    wall_s: f64,
    /// The per-point loop alone.
    loop_s: f64,
    table_bytes: Vec<u8>,
    fdr: Option<FdrTable>,
    checkpoint: CampaignCheckpoint,
}

/// The campaign as `session::run` does it — prepare, golden run through
/// the store, campaign, per-point loop, table — with the same point list
/// and parameters as the untraced session's checkpoint.
fn campaign_pass(
    req: &RunRequest,
    reference: &CampaignCheckpoint,
    store: Option<&ArtifactStore>,
    dir: &Path,
    driver: Driver,
) -> Result<CampaignPass, String> {
    let mut t = Layers::default();
    let wall = Instant::now();
    let prepared = t.time("circuit.prepare_s", || {
        req.circuit.prepare(req.stim_seed, req.cycles)
    });
    let golden_key = StoreKey::of(prepared.cc.netlist(), &prepared.config_desc);
    if let Some(store) = store {
        let cached: Option<GoldenRun> = t
            .time("campaign.store.get_s", || {
                store.get(ArtifactKind::GoldenRun, &golden_key)
            })
            .map_err(|e| format!("store get: {e}"))?;
        if cached.is_some() {
            return Err("fresh store already holds the golden run".into());
        }
    }
    let golden = t.time("sim.golden.capture_s", || {
        GoldenRun::capture(&prepared.cc, &prepared.stimulus, &prepared.watch)
    });
    if let Some(store) = store {
        t.time("campaign.store.put_s", || {
            store.put(ArtifactKind::GoldenRun, &golden_key, &golden)
        })
        .map_err(|e| format!("store put: {e}"))?;
    }
    let judge = prepared.judge_spec.build(&golden);
    let timed_judge = TimedJudge::new(&judge);
    let campaign = Campaign::with_golden(
        &prepared.cc,
        &prepared.stimulus,
        &prepared.watch,
        &timed_judge,
        golden,
    );
    t.time("sim.golden.journal_s", || {
        std::hint::black_box(campaign.net_journal());
    });

    let mut checkpoint = CampaignCheckpoint::fresh(
        reference.fingerprint.clone(),
        reference.params.clone(),
        reference.points.iter().map(|p| p.point),
    );
    let checkpoint_path = dir.join("checkpoint.json");
    let flush = |t: &mut Layers, cp: &CampaignCheckpoint| {
        t.time("campaign.checkpoint.flush_s", || cp.save(&checkpoint_path))?;
        t.add("campaign.checkpoint.flushes", 1.0);
        let bytes = std::fs::metadata(&checkpoint_path)?.len();
        t.add("campaign.checkpoint.bytes_written", bytes as f64);
        Ok::<(), std::io::Error>(())
    };
    let loop_start = Instant::now();
    match driver {
        Driver::Replay => replay_points(&campaign, &mut checkpoint, req, &mut t, flush)?,
        Driver::Runner(threads) => {
            let options = RunnerOptions {
                threads: Some(threads),
                checkpoint_every: req.checkpoint_every,
                ..RunnerOptions::default()
            };
            let sink_layers = Mutex::new(&mut t);
            let outcome = run_resumable(
                &campaign,
                &mut checkpoint,
                &options,
                &CancelToken::new(),
                |cp| flush(&mut sink_layers.lock().expect("sink lock poisoned"), cp),
                |_, _| {},
            )
            .map_err(|e| format!("runner: {e}"))?;
            if outcome != ffr_campaign::RunOutcome::Complete {
                return Err(format!("runner ended {outcome:?}"));
            }
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    t.add("fault.judge.s", timed_judge.seconds());
    t.add(
        "fault.judge.calls",
        timed_judge.calls.load(Ordering::Relaxed) as f64,
    );

    let table_path = dir.join("table.json");
    let fdr = match req.fault {
        FaultKind::Seu => {
            let table = checkpoint.to_fdr_table_for(prepared.cc.num_ffs());
            table.save_json(&table_path).map_err(|e| e.to_string())?;
            if let Some(store) = store {
                let key = session::campaign_table_key(req, &prepared);
                t.time("campaign.store.put_s", || {
                    store.put(ArtifactKind::FdrTable, &key, &table)
                })
                .map_err(|e| format!("store put: {e}"))?;
            }
            Some(table)
        }
        FaultKind::Set => {
            checkpoint
                .to_set_table()
                .save_json(&table_path)
                .map_err(|e| e.to_string())?;
            None
        }
    };
    let wall_s = wall.elapsed().as_secs_f64();
    Ok(CampaignPass {
        layers: t,
        wall_s,
        loop_s,
        table_bytes: crate::read(&table_path)?,
        fdr,
        checkpoint,
    })
}

/// The runner's per-point loop (`runner::run_with_source`) on one thread:
/// sample the plan, compile the cone, run policy batches, absorb,
/// flush every `checkpoint_every` retirements and once at the end.
fn replay_points<S: ffr_sim::Stimulus + Sync, J: FailureJudge>(
    campaign: &Campaign<'_, S, TimedJudge<'_, J>>,
    checkpoint: &mut CampaignCheckpoint,
    req: &RunRequest,
    t: &mut Layers,
    flush: impl Fn(&mut Layers, &CampaignCheckpoint) -> std::io::Result<()>,
) -> Result<(), String> {
    let params = checkpoint.params.clone();
    let policy = params.policy.clone();
    let window = params.window_start..params.window_end;
    let config = CampaignConfig::new(window.clone())
        .with_injections(policy.max_injections)
        .with_seed(params.seed);
    let mut scratch = campaign.point_scratch();
    let (mut run_s, mut evaluated, mut skipped, mut since_flush) = (0.0, 0u64, 0u64, 0);
    for index in 0..checkpoint.points.len() {
        let point = checkpoint.point(index);
        let mut record = checkpoint.points[index].clone();
        let times = sample_injection_times(
            params.seed,
            point.stream(),
            window.clone(),
            policy.max_injections,
        );
        let mut runner = t.time("sim.compile.cone_s", || campaign.point_runner(point));
        while !policy.is_settled(record.failures(), record.injections_done) {
            let batch = policy.next_batch(record.injections_done);
            if batch == 0 {
                break;
            }
            let slice = &times[record.injections_done..record.injections_done + batch];
            let t0 = Instant::now();
            let counts = campaign.run_point_times_with(&mut runner, &mut scratch, slice, &config);
            run_s += t0.elapsed().as_secs_f64();
            record.absorb(&counts, batch);
        }
        evaluated += runner.frontier_ops_evaluated();
        skipped += runner.frontier_ops_skipped();
        t.add("fault.campaign.cycles_saved", runner.cycles_saved() as f64);
        record.complete = policy.is_settled(record.failures(), record.injections_done);
        if !record.complete {
            return Err(format!("point {index} did not settle"));
        }
        checkpoint.points[index] = record;
        since_flush += 1;
        if since_flush >= req.checkpoint_every {
            flush(t, checkpoint).map_err(|e| format!("checkpoint: {e}"))?;
            since_flush = 0;
        }
    }
    flush(t, checkpoint).map_err(|e| format!("checkpoint: {e}"))?;
    t.add("fault.campaign.run_s", run_s);
    if evaluated + skipped > 0 {
        t.add(
            "fault.campaign.frontier_eval_frac",
            evaluated as f64 / (evaluated + skipped) as f64,
        );
    }
    Ok(())
}

/// The estimation stage as `estimate_session` does it on a fresh
/// session: prepare, features through the store, stratified CV grid
/// search per model, prediction, report. Returns the report's
/// `estimate.json` bytes and the winning model's CV R².
fn estimate_pass(
    req: &RunRequest,
    options: &EstimateOptions,
    table: &FdrTable,
    fingerprint: &str,
    store: &ArtifactStore,
    dir: &Path,
    t: &mut Layers,
) -> Result<(Vec<u8>, f64), String> {
    let store_err = |e: std::io::Error| format!("store: {e}");
    let prepared = t.time("circuit.prepare_s", || {
        req.circuit.prepare(req.stim_seed, req.cycles)
    });
    let netlist = prepared.cc.netlist();
    let model_names: Vec<&str> = options.models.iter().map(|m| m.cli_name()).collect();
    let report_key = StoreKey::of(
        netlist,
        &format!(
            "estimate;of={fingerprint};models={};folds={};cv_seed={};grid={};report_v={}",
            model_names.join(","),
            options.folds,
            options.cv_seed,
            options.grid_budget,
            ffr_campaign::estimate::REPORT_VERSION
        ),
    );
    let cached: Option<EstimateReport> = t
        .time("campaign.store.get_s", || {
            store.get(ArtifactKind::Report, &report_key)
        })
        .map_err(store_err)?;
    let features_key = StoreKey::of(
        netlist,
        &format!("{};{}", prepared.config_desc, ffr_features::schema_desc()),
    );
    let cached_features: Option<FeatureMatrix> = t
        .time("campaign.store.get_s", || {
            store.get(ArtifactKind::Features, &features_key)
        })
        .map_err(store_err)?;
    if cached.is_some() || cached_features.is_some() {
        return Err("fresh store already holds the estimate or features".into());
    }
    let golden_key = StoreKey::of(netlist, &prepared.config_desc);
    let golden: GoldenRun = t
        .time("campaign.store.get_s", || {
            store.get(ArtifactKind::GoldenRun, &golden_key)
        })
        .map_err(store_err)?
        .ok_or("golden run missing from the store")?;
    let features = t.time("features.extract_s", || {
        ffr_features::extract_features(&prepared.cc, &golden.activity)
    });
    t.time("campaign.store.put_s", || {
        store.put(ArtifactKind::Features, &features_key, &features)
    })
    .map_err(store_err)?;

    let rows = features.to_rows();
    let measured: Vec<(usize, f64)> = table.covered().map(|r| (r.ff().index(), r.fdr())).collect();
    let tx: Vec<Vec<f64>> = measured.iter().map(|&(i, _)| rows[i].clone()).collect();
    let ty: Vec<f64> = measured.iter().map(|&(_, v)| v).collect();
    let dataset_key = StoreKey::of(
        netlist,
        &format!(
            "train-dataset;of={fingerprint};{}",
            ffr_features::schema_desc()
        ),
    );
    t.time("campaign.store.put_s", || {
        store.put(ArtifactKind::Dataset, &dataset_key, &measured)
    })
    .map_err(store_err)?;

    let folds_n = options.folds.clamp(2, measured.len());
    let folds = StratifiedKFold::new(folds_n, options.cv_seed).split(&ty);
    let mut models = Vec::new();
    let mut best: Option<(f64, ffr_core::ModelCandidate)> = None;
    for &kind in &options.models {
        let grid = kind.small_grid(options.grid_budget);
        let search = t.time(fit_metric(kind.cli_name())?, || {
            grid_search(&grid, |c| c.build(), &tx, &ty, &folds)
        });
        let s = search.best_scores;
        models.push(ModelReport {
            model: kind.cli_name().to_string(),
            display_name: kind.display_name().to_string(),
            best_params: search.best_params.label().to_string(),
            cv_mae: s.mae,
            cv_max: s.max,
            cv_rmse: s.rmse,
            cv_ev: s.ev,
            cv_r2: s.r2,
        });
        if best.as_ref().is_none_or(|(r2, _)| s.r2 > *r2) {
            best = Some((s.r2, search.best_params));
        }
    }
    let (best_r2, winner) = best.ok_or("no models")?;
    let estimation = t.time("ml.predict_s", || {
        Estimation::from_measured_with(&features, table, &mut winner.build())
    });

    let total_ffs = prepared.cc.num_ffs();
    let injections_spent: usize = table.covered().map(|r| r.injections()).sum();
    let full_campaign_injections = total_ffs * req.policy.max_injections;
    let report = EstimateReport {
        version: ffr_campaign::estimate::REPORT_VERSION,
        circuit: req.circuit.spec_string(),
        campaign_fingerprint: fingerprint.to_string(),
        budget: req.budget,
        measured_ffs: measured.len(),
        total_ffs,
        cv_folds: folds_n,
        cv_seed: options.cv_seed,
        models,
        best_model: winner.kind().cli_name().to_string(),
        measured_fdr_mean: table.circuit_fdr(),
        circuit_ffr: estimation.circuit_fdr(),
        injections_spent,
        full_campaign_injections,
        injection_savings: if injections_spent == 0 {
            0.0
        } else {
            full_campaign_injections as f64 / injections_spent as f64
        },
        per_ff: estimation
            .per_ff
            .iter()
            .enumerate()
            .map(|(i, e)| FfEstimateRow {
                ff: features.ff_names()[i].clone(),
                index: i,
                fdr: e.value(),
                measured: e.is_measured(),
            })
            .collect(),
    };
    t.time("campaign.store.put_s", || {
        store.put(ArtifactKind::Report, &report_key, &report)
    })
    .map_err(store_err)?;
    let path = dir.join("estimate.json");
    report.save_json(&path).map_err(|e| e.to_string())?;
    Ok((crate::read(&path)?, best_r2))
}

fn fit_metric(model: &str) -> Result<&'static str, String> {
    Ok(match model {
        "linear" => "ml.fit_s.linear",
        "knn" => "ml.fit_s.knn",
        "forest" => "ml.fit_s.forest",
        "boosting" => "ml.fit_s.boosting",
        "mlp" => "ml.fit_s.mlp",
        other => return Err(format!("no fit metric for model {other:?}")),
    })
}

/// Outputs and per-layer metrics of one traced replay.
pub struct Traced {
    /// Result tables of every pass (the replay, and the runner pass of a
    /// multi-threaded workload); each must equal the untraced table.
    pub tables: Vec<Vec<u8>>,
    pub estimate: Option<Vec<u8>>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Replay the workload traced: the campaign pass on one thread (every
/// per-layer time), the estimate pass where the workload has one, and
/// for a multi-threaded workload one pass of the runner itself with the
/// timed judge and checkpoint sink, which gives `campaign.runner.wait_s`.
pub fn trace(
    w: &Workload,
    req: &RunRequest,
    options: &EstimateOptions,
    untraced: &Finished,
    dir: &Path,
) -> Result<Traced, String> {
    let store = if w.store {
        Some(ArtifactStore::open(dir.join("store")).map_err(|e| format!("store: {e}"))?)
    } else {
        None
    };
    let reference = &untraced.checkpoint;
    let pass = campaign_pass(req, reference, store.as_ref(), dir, Driver::Replay)?;
    let mut t = pass.layers;
    let run_s = t.get("fault.campaign.run_s");
    let judge_s = t.get("fault.judge.s");
    t.add("fault.campaign.sim_s", run_s - judge_s);
    let busy = |t: &Layers, names: &[&str]| names.iter().map(|n| t.get(n)).sum::<f64>();
    const LOOP_LAYERS: [&str; 4] = [
        "sim.compile.cone_s",
        "fault.campaign.sim_s",
        "fault.judge.s",
        "campaign.checkpoint.flush_s",
    ];
    let mut tables = vec![pass.table_bytes];
    let mut traced_campaign_s = pass.wall_s;
    let wait_s = match w.threads {
        1 => pass.loop_s - busy(&t, &LOOP_LAYERS),
        threads => {
            let runner_dir = dir.join("runner");
            std::fs::create_dir_all(&runner_dir).map_err(|e| e.to_string())?;
            let runner = campaign_pass(req, reference, None, &runner_dir, Driver::Runner(threads))?;
            tables.push(runner.table_bytes);
            traced_campaign_s = runner.wall_s;
            // Cone and simulation are not observable inside the runner;
            // the replay did the same work on one thread.
            let busy_runner = t.get("sim.compile.cone_s")
                + t.get("fault.campaign.sim_s")
                + runner.layers.get("fault.judge.s")
                + runner.layers.get("campaign.checkpoint.flush_s");
            threads as f64 * runner.loop_s - busy_runner
        }
    };
    t.add("campaign.runner.wait_s", wait_s);

    let mut wall_s = pass.wall_s;
    let mut estimate = None;
    if w.estimate {
        let table = pass.fdr.as_ref().ok_or("estimate needs an SEU table")?;
        let store = store.as_ref().ok_or("estimate needs the store")?;
        let t0 = Instant::now();
        let (bytes, r2) = estimate_pass(
            req,
            options,
            table,
            &pass.checkpoint.fingerprint,
            store,
            dir,
            &mut t,
        )?;
        let estimate_s = t0.elapsed().as_secs_f64();
        wall_s += estimate_s;
        t.add("estimate.wall_s", estimate_s);
        t.add("estimate.cv_r2", r2);
        t.add(
            "ml.fit.mlp_estimate_frac",
            t.get("ml.fit_s.mlp") / estimate_s,
        );
        estimate = Some(bytes);
    }
    if let Some(store) = &store {
        let bytes: u64 = store
            .list()
            .map_err(|e| format!("store list: {e}"))?
            .iter()
            .map(|a| a.bytes)
            .sum();
        t.add("campaign.store.bytes", bytes as f64);
    }

    // Accounting: every timed layer, none counted twice.
    const TIMED: [&str; 16] = [
        "circuit.prepare_s",
        "sim.golden.capture_s",
        "sim.golden.journal_s",
        "sim.compile.cone_s",
        "fault.campaign.sim_s",
        "fault.judge.s",
        "campaign.checkpoint.flush_s",
        "campaign.store.put_s",
        "campaign.store.get_s",
        "features.extract_s",
        "ml.fit_s.linear",
        "ml.fit_s.knn",
        "ml.fit_s.forest",
        "ml.fit_s.boosting",
        "ml.fit_s.mlp",
        "ml.predict_s",
    ];
    let unattributed = wall_s - busy(&t, &TIMED);
    if unattributed < 0.0 {
        return Err(format!(
            "layers sum to {unattributed} s more than the traced wall time"
        ));
    }
    t.add("trace.unattributed_s", unattributed);

    let points = pass.checkpoint.points.len() as f64;
    let calls = t.get("fault.judge.calls");
    let max_injections = pass.checkpoint.params.policy.max_injections;
    let early = pass
        .checkpoint
        .points
        .iter()
        .filter(|p| p.injections_done < max_injections)
        .count();
    t.add(
        "sim.compile.cone_us_per_point",
        t.get("sim.compile.cone_s") / points * 1e6,
    );
    t.add("fault.judge.us_per_call", judge_s / calls.max(1.0) * 1e6);
    t.add("fault.judge.campaign_frac", judge_s / pass.wall_s);
    t.add(
        "campaign.adaptive.injections_per_point",
        pass.checkpoint.total_injections() as f64 / points,
    );
    t.add(
        "campaign.adaptive.early_settled_frac",
        early as f64 / points,
    );
    t.add("trace.campaign_s", traced_campaign_s);
    t.add("trace.untraced_campaign_s", untraced.campaign_s);
    t.add(
        "trace.overhead_frac",
        traced_campaign_s / untraced.campaign_s - 1.0,
    );
    Ok(Traced {
        tables,
        estimate,
        metrics: t.0.into_iter().collect(),
    })
}
