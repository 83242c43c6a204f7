//! Benchmark of the FFR flow: wall time to a finished circuit FFR (the
//! fault-injection campaign, plus the ML estimate where the workload has
//! one), driven from outside through the public `ffr_campaign` API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mac --seed 2019 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` repeats the untraced flow (`session::run` +
//! `estimate_session`, program telemetry off) for `--seconds` and prints
//! the end-to-end metrics as medians. `--trace 1` pairs each untraced
//! pass with a replay of it, layer by layer, through the same public
//! entry points with timers around each call (see `replay.rs`), and
//! prints the per-layer metrics. Either way every result table and `estimate.json`
//! must be byte-identical across repetitions, equal to the traced
//! replay's, and — at [`DEFAULT_SEED`] — equal to the digests recorded in
//! [`WORKLOADS`]. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod replay;

use ffr_campaign::store::fnv1a64;
use ffr_campaign::{
    estimate_session, session, AdaptivePolicy, CampaignCheckpoint, CancelToken, CircuitSpec,
    EstimateOptions, RunOutcome, RunRequest, RunnerOptions, SessionPaths,
};
use ffr_fault::{Campaign, FaultKind};
use ffr_sim::GoldenRun;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed whose output digests are recorded in [`WORKLOADS`]: the
/// campaign and CV seed `ffr run` / `ffr estimate` use by default.
const DEFAULT_SEED: u64 = 2019;

/// Before every pass a run sets up at least [`SETUP_REPS`] times and for
/// at least [`SETUP_SLICE_S`] seconds; `setup_s` is the median of all of
/// them, so it samples the whole run as the pass times do.
const SETUP_REPS: usize = 3;
const SETUP_SLICE_S: f64 = 0.25;

/// One benchmark workload: the `ffr run` (and `ffr estimate`) parameters
/// it stands for. Why each was chosen, and which layers it loads and
/// bypasses, is recorded in `NOTES.md`.
struct Workload {
    name: &'static str,
    circuit: &'static str,
    fault: FaultKind,
    policy: &'static str,
    budget: f64,
    threads: usize,
    /// Run against a fresh, empty artifact store.
    store: bool,
    /// Follow the campaign with `ffr estimate` (default options).
    estimate: bool,
    /// Campaign seed to use instead of `--seed` (which then drives only
    /// the estimate's CV folds).
    campaign_seed: Option<u64>,
    /// FNV-1a 64 of the result table (`fdr.json` / `set-derating.json`)
    /// at [`DEFAULT_SEED`].
    table_digest: u64,
    /// FNV-1a 64 of `estimate.json` at [`DEFAULT_SEED`].
    estimate_digest: Option<u64>,
}

const WORKLOADS: [Workload; 3] = [
    // The paper's own flow on the paper's circuit: the only workload that
    // runs MacJudge, the artifact store, feature extraction and the ML.
    Workload {
        name: "paper_mac",
        circuit: "mac",
        fault: FaultKind::Seu,
        policy: "fixed:170",
        budget: 0.25,
        threads: 1,
        store: true,
        estimate: true,
        // The MAC's per-flip-flop cost is heavy-tailed: a 25 % subset
        // drawn per seed moved the campaign's time by up to 1.7x between
        // seeds, so the measured subset stays the default one.
        campaign_seed: Some(DEFAULT_SEED),
        table_digest: 0x72d2_fcf1_6787_c953,
        estimate_digest: Some(0x0a27_2a76_9637_e54b),
    },
    // A generic 4110-flip-flop circuit under the adaptive Wilson policy:
    // judge-bound (OutputMismatchJudge over tiny cones).
    Workload {
        name: "fifo_wilson",
        circuit: "corpus:fifo6x64",
        fault: FaultKind::Seu,
        policy: "wilson:0.05@95",
        budget: 0.10,
        threads: 1,
        store: false,
        estimate: false,
        campaign_seed: None,
        table_digest: 0xc324_f815_e6db_93b3,
        estimate_digest: None,
    },
    // Thousands of short SET points on two threads: cone builds,
    // checkpoint rewrites under the runner's progress lock.
    Workload {
        name: "set_macsmall_t2",
        circuit: "mac-small",
        fault: FaultKind::Set,
        policy: "fixed:64",
        budget: 1.0,
        threads: 2,
        store: false,
        estimate: false,
        campaign_seed: None,
        table_digest: 0xc834_be87_578a_d88b,
        estimate_digest: None,
    },
];

/// End-to-end metrics (`--trace 0`), in output order: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("ffr_s", "s"),
    ("campaign_s", "s"),
    ("injections_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in output order: name, unit. A layer
/// a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("circuit.prepare_s", "s"),
    ("sim.golden.capture_s", "s"),
    ("sim.golden.journal_s", "s"),
    ("sim.compile.cone_s", "s"),
    ("sim.compile.cone_us_per_point", "us"),
    ("fault.campaign.sim_s", "s"),
    ("fault.campaign.frontier_eval_frac", "ratio"),
    ("fault.campaign.cycles_saved", "count"),
    ("fault.judge.s", "s"),
    ("fault.judge.calls", "count"),
    ("fault.judge.us_per_call", "us"),
    ("fault.judge.campaign_frac", "ratio"),
    ("campaign.adaptive.injections_per_point", "count"),
    ("campaign.adaptive.early_settled_frac", "ratio"),
    ("campaign.checkpoint.flush_s", "s"),
    ("campaign.checkpoint.flushes", "count"),
    ("campaign.checkpoint.bytes_written", "bytes"),
    ("campaign.runner.wait_s", "s"),
    ("campaign.store.put_s", "s"),
    ("campaign.store.get_s", "s"),
    ("campaign.store.bytes", "bytes"),
    ("features.extract_s", "s"),
    ("ml.fit_s.linear", "s"),
    ("ml.fit_s.knn", "s"),
    ("ml.fit_s.forest", "s"),
    ("ml.fit_s.boosting", "s"),
    ("ml.fit_s.mlp", "s"),
    ("ml.fit.mlp_estimate_frac", "ratio"),
    ("ml.predict_s", "s"),
    ("estimate.wall_s", "s"),
    ("estimate.cv_r2", "ratio"),
    ("trace.campaign_s", "s"),
    ("trace.untraced_campaign_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                // A negative seed names the same inputs as its two's
                // complement.
                seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|v| v as u64))
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The `RunRequest` a workload stands for at a seed. The seed drives the
/// campaign (which flip-flops a budget measures, and every injection
/// time) unless the workload pins it; the circuit and its testbench stay
/// fixed.
fn request(w: &Workload, seed: u64, store: Option<PathBuf>) -> RunRequest {
    let circuit: CircuitSpec = w.circuit.parse().expect("workload circuit spec");
    let policy: AdaptivePolicy = w.policy.parse().expect("workload policy spec");
    RunRequest {
        fault: w.fault,
        seed: w.campaign_seed.unwrap_or(seed),
        policy,
        budget: w.budget,
        store,
        ..RunRequest::new(circuit)
    }
}

fn estimate_options(seed: u64) -> EstimateOptions {
    EstimateOptions {
        cv_seed: seed,
        ..EstimateOptions::default()
    }
}

/// One untraced pass to a finished FFR.
struct Finished {
    ffr_s: f64,
    campaign_s: f64,
    injections: usize,
    table: Vec<u8>,
    estimate: Option<Vec<u8>>,
    checkpoint: CampaignCheckpoint,
}

/// Run the workload's flow once, as `ffr run` + `ffr estimate` would, in
/// a fresh session directory (and fresh store) under `dir`.
fn finish_ffr(w: &Workload, seed: u64, dir: &Path) -> Result<Finished, String> {
    let out = dir.join("session");
    let req = request(w, seed, w.store.then(|| dir.join("store")));
    let options = RunnerOptions {
        threads: Some(w.threads),
        ..RunnerOptions::default()
    };
    let t0 = Instant::now();
    let summary = session::run(&req, &out, &options, &CancelToken::new(), |_, _| {})
        .map_err(|e| format!("campaign: {e}"))?;
    let campaign_s = t0.elapsed().as_secs_f64();
    if summary.outcome != RunOutcome::Complete {
        return Err(format!("campaign ended {:?}", summary.outcome));
    }
    let paths = SessionPaths::new(&out);
    let estimate = if w.estimate {
        estimate_session(&out, &estimate_options(seed)).map_err(|e| format!("estimate: {e}"))?;
        Some(read(&paths.estimate_json())?)
    } else {
        None
    };
    let ffr_s = t0.elapsed().as_secs_f64();
    let table_path = summary
        .table_path
        .ok_or("complete campaign without a table")?;
    Ok(Finished {
        ffr_s,
        campaign_s,
        injections: summary.total_injections,
        table: read(&table_path)?,
        estimate,
        checkpoint: CampaignCheckpoint::load(&paths.checkpoint())
            .map_err(|e| format!("checkpoint: {e}"))?,
    })
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run `f` in a fresh directory, removed afterwards; a panic becomes an
/// error so it counts as a failed operation instead of ending the run.
fn in_fresh_dir<T>(dir: &Path, f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(dir)))
        .unwrap_or_else(|_| Err("panicked".to_string()));
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// One untraced pass in a fresh directory, its outputs checked.
fn checked_pass(args: &Args, work: &Path, check: &mut OutputCheck) -> Result<Finished, String> {
    in_fresh_dir(&work.join("ffr"), |dir| {
        let done = finish_ffr(args.workload, args.seed, dir)?;
        check.check(&done.table, done.estimate.as_deref())?;
        Ok(done)
    })
}

/// Checks every output against the first one seen and, at the default
/// seed, against the recorded digests.
struct OutputCheck<'a> {
    workload: &'a Workload,
    seed: u64,
    table: Option<Vec<u8>>,
    estimate: Option<Option<Vec<u8>>>,
}

impl OutputCheck<'_> {
    fn check(&mut self, table: &[u8], estimate: Option<&[u8]>) -> Result<(), String> {
        if self.table.get_or_insert_with(|| table.to_vec()) != table {
            return Err("result table differs between runs".into());
        }
        let estimate_bytes = estimate.map(<[u8]>::to_vec);
        if *self.estimate.get_or_insert_with(|| estimate_bytes.clone()) != estimate_bytes {
            return Err("estimate.json differs between runs".into());
        }
        let w = self.workload;
        if self.seed == DEFAULT_SEED {
            if fnv1a64(table) != w.table_digest {
                return Err(format!(
                    "result table digest {:016x} != recorded {:016x}",
                    fnv1a64(table),
                    w.table_digest
                ));
            }
            if estimate.map(fnv1a64) != w.estimate_digest {
                return Err(format!(
                    "estimate.json digest {:x?} != recorded {:x?}",
                    estimate.map(fnv1a64),
                    w.estimate_digest
                ));
            }
        }
        Ok(())
    }
}

/// One set-up as a campaign pays it before its first injection: build
/// the circuit and testbench, capture the golden run, and capture the
/// golden net journal that cone-restricted simulation replays.
fn setup_once(req: &RunRequest) -> f64 {
    let t0 = Instant::now();
    let prepared = req.circuit.prepare(req.stim_seed, req.cycles);
    let golden = GoldenRun::capture(&prepared.cc, &prepared.stimulus, &prepared.watch);
    let judge = prepared.judge_spec.build(&golden);
    let campaign = Campaign::with_golden(
        &prepared.cc,
        &prepared.stimulus,
        &prepared.watch,
        &judge,
        golden,
    );
    black_box(campaign.net_journal());
    t0.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64)>,
}

/// `--trace 0`: finish the FFR over and over for `seconds`, setting up
/// repeatedly before each pass (see [`SETUP_REPS`]).
fn run_untraced(args: &Args, work: &Path) -> Outcome {
    let w = args.workload;
    let req = request(w, args.seed, None);
    let mut setup = Vec::new();
    let mut check = OutputCheck {
        workload: w,
        seed: args.seed,
        table: None,
        estimate: None,
    };
    let (mut ffr, mut campaign, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    loop {
        let slice = Instant::now();
        for rep in 0.. {
            if rep >= SETUP_REPS && slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
            setup.push(setup_once(&req));
        }
        attempted += 1;
        match checked_pass(args, work, &mut check) {
            Ok(done) => {
                eprintln!(
                    "perfbench: pass {attempted}: ffr_s {:.4} campaign_s {:.4}",
                    done.ffr_s, done.campaign_s
                );
                ffr.push(done.ffr_s);
                campaign.push(done.campaign_s);
                rate.push(done.injections as f64 / done.campaign_s);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: pass {attempted} failed: {e}");
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let range = |v: &[f64]| {
        v.iter()
            .copied()
            .fold((f64::MAX, 0.0f64), |(lo, hi), x| (lo.min(x), hi.max(x)))
    };
    eprintln!(
        "perfbench: {} timed passes, ffr_s range {:?}; {} set-ups",
        ffr.len(),
        range(&ffr),
        setup.len()
    );
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("ffr_s", median(&mut ffr)),
            ("campaign_s", median(&mut campaign)),
            ("injections_per_s", median(&mut rate)),
            ("setup_s", median(&mut setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
    }
}

/// `--trace 1`: for `seconds`, one untraced pass (the reference outputs,
/// the point list and the untraced `campaign_s`) followed by its traced
/// replay; per-layer metrics are medians over these pairs.
fn run_traced(args: &Args, work: &Path) -> Outcome {
    let w = args.workload;
    let mut check = OutputCheck {
        workload: w,
        seed: args.seed,
        table: None,
        estimate: None,
    };
    let req = request(w, args.seed, None);
    let mut samples: Vec<Vec<(&str, f64)>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    loop {
        attempted += 1;
        let result = checked_pass(args, work, &mut check).and_then(|untraced| {
            in_fresh_dir(&work.join("replay"), |dir| {
                let options = estimate_options(args.seed);
                let traced = replay::trace(w, &req, &options, &untraced, dir)?;
                for table in &traced.tables {
                    check.check(table, traced.estimate.as_deref())?;
                }
                Ok(traced)
            })
        });
        match result {
            Ok(traced) => samples.push(traced.metrics),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: traced pass failed: {e}");
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let mut values: Vec<f64> = samples
                .iter()
                .map(|s| s.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v))
                .collect();
            (name, median(&mut values))
        })
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    // End-to-end numbers are taken with the program's own telemetry off;
    // the traced replay times layers from here instead.
    std::env::set_var("FFR_TELEMETRY", "0");
    let work = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
        .join("work")
        .join(std::process::id().to_string());
    let outcome = if args.trace {
        run_traced(&args, &work)
    } else {
        run_untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut finite = true;
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            finite &= value.is_finite();
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && finite,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
