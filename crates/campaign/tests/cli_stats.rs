//! Process-level telemetry flow: a real `ffr run` writes per-worker
//! JSONL logs under `<campaign>/telemetry/`, `ffr stats` merges them into
//! a phase/throughput report (text and `--json`), `ffr status --json`
//! carries a versioned schema with live rates, `FFR_TELEMETRY=0` disables
//! recording, and `ffr gc --campaign` sweeps the logs of a completed
//! campaign.

use serde_json::parse_value_complete;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const FFR: &str = env!("CARGO_BIN_EXE_ffr");

fn fresh_base(tag: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("ffr_stats_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    base
}

fn ffr(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(FFR);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn ffr")
}

fn run_args(out: &str) -> Vec<&str> {
    vec![
        "run",
        "--circuit",
        "counter",
        "--out",
        out,
        "--cycles",
        "160",
        "--injections",
        "48",
        "--checkpoint-every",
        "4",
    ]
}

fn get<'a>(v: &'a serde_json::Value, path: &[&str]) -> &'a serde_json::Value {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing key `{key}` in {cur:?}"));
    }
    cur
}

#[test]
fn telemetry_stats_status_and_gc_flow() {
    let base = fresh_base("flow");
    let out = base.join("session");
    let out_s = out.to_string_lossy().into_owned();

    // A completed run leaves a telemetry log for the `local` worker.
    let run = ffr(&run_args(&out_s), &[("FFR_LOG", "debug")]);
    assert!(run.status.success(), "{run:?}");
    let telemetry = out.join("telemetry");
    assert!(
        telemetry.join("local.jsonl").exists(),
        "expected a local.jsonl telemetry log"
    );

    // The text report names the phases and the throughput.
    let stats = ffr(&["stats", "--campaign", &out_s], &[]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("phases (merged):"), "{text}");
    assert!(text.contains("measure"), "{text}");
    assert!(text.contains("injections"), "{text}");

    // The JSON report parses, is versioned, and carries the expected
    // span, counter and histogram names.
    let stats_json = ffr(&["stats", "--campaign", &out_s, "--json"], &[]);
    assert!(stats_json.status.success());
    let doc = parse_value_complete(&String::from_utf8_lossy(&stats_json.stdout))
        .expect("stats --json parses");
    assert_eq!(
        get(&doc, &["schema_version"]),
        &serde_json::Value::U64(1),
        "{doc:?}"
    );
    for span in [
        "phase.golden",
        "phase.measure",
        "phase.publish",
        "range.run",
    ] {
        assert!(
            get(&doc, &["spans"]).get(span).is_some(),
            "missing span `{span}` in {doc:?}"
        );
    }
    let injections = get(&doc, &["counters", "injections"]);
    assert!(
        matches!(injections, serde_json::Value::U64(n) if *n > 0),
        "{injections:?}"
    );
    // The text report's frontier percentage is the evaluated share of
    // the merged frontier counters, printed right after "evaluated".
    let counter = |name: &str| match get(&doc, &["counters", name]) {
        serde_json::Value::U64(n) => *n,
        other => panic!("counter `{name}` is {other:?}"),
    };
    let evaluated = counter("frontier.ops_evaluated");
    let skipped = counter("frontier.ops_skipped");
    assert!(evaluated > 0 && skipped > 0, "{evaluated} / {skipped}");
    let pct = 100.0 * evaluated as f64 / (evaluated + skipped) as f64;
    let expected = format!("{evaluated} cone ops evaluated ({pct:.1}% ");
    assert!(text.contains(&expected), "expected `{expected}` in {text}");
    // Every injection is either judged or prefiltered as golden, and the
    // text report's judge line prints both counters and the share.
    let calls = counter("judge.calls");
    let golden = counter("judge.golden_lanes");
    assert_eq!(calls + golden, counter("injections"), "{doc:?}");
    let pct = 100.0 * golden as f64 / (calls + golden) as f64;
    let expected = format!("{calls} judge calls, {golden} lanes prefiltered as golden ({pct:.1}% ");
    assert!(text.contains(&expected), "expected `{expected}` in {text}");
    assert!(
        get(&doc, &["hists"]).get("checkpoint.flush_us").is_some(),
        "missing checkpoint.flush_us histogram in {doc:?}"
    );
    let workers = get(&doc, &["workers"]).as_array().unwrap();
    assert_eq!(workers.len(), 1);
    assert_eq!(
        get(&workers[0], &["worker"]),
        &serde_json::Value::Str("local".into())
    );
    assert!(
        !matches!(
            get(&workers[0], &["injections_per_sec"]),
            serde_json::Value::Null
        ),
        "expected a live injections/sec estimate"
    );

    // `ffr status --json` is versioned and carries the live rate.
    let status = ffr(&["status", "--out", &out_s, "--json"], &[]);
    assert!(status.status.success());
    let doc = parse_value_complete(&String::from_utf8_lossy(&status.stdout))
        .expect("status --json parses");
    assert_eq!(get(&doc, &["schema_version"]), &serde_json::Value::U64(2));
    assert!(
        get(&doc, &["telemetry"])
            .get("injections_per_sec")
            .is_some(),
        "{doc:?}"
    );

    // gc sweeps the telemetry logs of the completed campaign.
    let gc = ffr(&["gc", "--campaign", &out_s], &[]);
    assert!(gc.status.success());
    let gc_text = String::from_utf8_lossy(&gc.stdout);
    assert!(gc_text.contains("telemetry log(s)"), "{gc_text}");
    assert!(!telemetry.join("local.jsonl").exists());

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn ffr_telemetry_0_disables_recording() {
    let base = fresh_base("disabled");
    let out = base.join("session");
    let out_s = out.to_string_lossy().into_owned();

    let run = ffr(&run_args(&out_s), &[("FFR_TELEMETRY", "0")]);
    assert!(run.status.success(), "{run:?}");
    assert!(
        !out.join("telemetry").join("local.jsonl").exists(),
        "FFR_TELEMETRY=0 must suppress the log"
    );

    // `ffr stats` degrades gracefully instead of failing.
    let stats = ffr(&["stats", "--campaign", &out_s], &[]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("no telemetry"), "{text}");

    // Status still works; it just omits the telemetry field's rates.
    let status = ffr(&["status", "--out", &out_s, "--json"], &[]);
    assert!(status.status.success());

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn quiet_flag_silences_stderr_progress() {
    let base = fresh_base("quiet");
    let out = base.join("session");
    let out_s = out.to_string_lossy().into_owned();

    let mut args = run_args(&out_s);
    args.push("--quiet");
    let run = ffr(&args, &[]);
    assert!(run.status.success(), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.trim().is_empty(),
        "--quiet must silence progress chatter, got: {stderr}"
    );
    // Product output stays on stdout regardless of verbosity.
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("FDR table written"), "{stdout}");

    let _ = std::fs::remove_dir_all(&base);
}

/// Byte-identical invariant with telemetry enabled: an interrupted +
/// resumed campaign and a clean one produce identical `fdr.json` bytes
/// even though both sessions record telemetry (the logs live outside the
/// fingerprint and the artifact store).
#[test]
fn telemetry_does_not_perturb_byte_identical_results() {
    let base = fresh_base("identical");
    let a = base.join("a");
    let b = base.join("b");
    let a_s = a.to_string_lossy().into_owned();
    let b_s = b.to_string_lossy().into_owned();

    let mut interrupted = run_args(&a_s);
    interrupted.extend_from_slice(&["--stop-after-points", "2"]);
    let run = ffr(&interrupted, &[("FFR_LOG", "debug")]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let resume = ffr(&["resume", "--out", &a_s], &[("FFR_LOG", "debug")]);
    assert!(resume.status.success(), "{resume:?}");

    let clean = ffr(&run_args(&b_s), &[]);
    assert!(clean.status.success(), "{clean:?}");

    let fdr = |dir: &Path| std::fs::read(dir.join("fdr.json")).expect("fdr.json");
    assert_eq!(fdr(&a), fdr(&b), "telemetry must not perturb results");

    // Both telemetry logs exist and merge cleanly.
    let stats = ffr(&["stats", "--campaign", &a_s, "--json"], &[]);
    assert!(stats.status.success());
    parse_value_complete(&String::from_utf8_lossy(&stats.stdout)).expect("parses");

    let _ = std::fs::remove_dir_all(&base);
}
