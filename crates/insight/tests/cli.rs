//! Black-box tests of the `disq-insight` binary: exit codes are the
//! contract CI gates on (0 = success, 1 = malformed input, 2 = usage,
//! 3 = no data).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_disq-insight")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disq-insight-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `query_audit` ledger for `calib` to score.
fn ledger(seed: u64, predicted: f64, training: f64, realized: f64) -> disq_trace::TraceEvent {
    disq_trace::TraceEvent::QueryAudit {
        query: seed + 1,
        label: "pictures/Bmi/DisQ".into(),
        seed,
        target: "Bmi".into(),
        n_objects: 150,
        predicted_mse: predicted,
        training_mse: training,
        realized_mse: realized,
        noise_mse: realized,
        model_mse: 0.0,
        cross_mse: 0.0,
        error_floor: 0.0,
        budget_truncation: predicted,
        ci_level: 0.95,
        ci_coverage: 0.95,
        attrs: vec![],
    }
}

#[test]
fn report_renders_a_generated_trace() {
    use disq_trace::{KindSpend, TraceEvent};
    let dir = tempdir("report");
    let trace = dir.join("run.jsonl");
    let events = [
        TraceEvent::RunStart {
            label: "pictures / {Bmi}".into(),
            seed: 7,
        },
        TraceEvent::PhaseSpend {
            phase: "examples".into(),
            spent_millicents: 4000,
            delta_millicents: 4000,
            delta_questions: 10,
            by_kind: vec![KindSpend {
                kind: "example".into(),
                questions: 10,
                millicents: 4000,
            }],
        },
        ledger(0, 4.0, 4.2, 4.4),
        ledger(1, 3.0, 3.1, 3.2),
    ];
    let mut text: String = events.iter().map(|e| e.to_json() + "\n").collect();
    text.push_str("corrupt tail without a closing brace");
    std::fs::write(&trace, text).unwrap();

    let report = run(&["report", trace.to_str().unwrap()]);
    assert_eq!(report.status.code(), Some(0), "{report:?}");
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("4 events parsed"), "{stdout}");
    assert!(stdout.contains("1 corrupt lines skipped"), "{stdout}");
    assert!(stdout.contains("budget attribution"), "{stdout}");
    assert!(stdout.contains("examples"), "{stdout}");

    let calib = run(&["calib", trace.to_str().unwrap()]);
    assert_eq!(calib.status.code(), Some(0), "{calib:?}");
    let stdout = String::from_utf8_lossy(&calib.stdout);
    assert!(stdout.contains("2 scored sample(s)"), "{stdout}");
    assert!(stdout.contains("pearson(predicted, realized)"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_renders_audit_ledger_and_gates_on_malformed() {
    use disq_trace::{AttrAudit, TraceEvent};
    let dir = tempdir("explain");
    let trace = dir.join("run.jsonl");
    let object = TraceEvent::ObjectAudit {
        query: 1,
        label: "fig1".into(),
        seed: 0,
        target: "Bmi".into(),
        object: 42,
        truth: 22.0,
        estimate: 24.0,
        residual: 2.0,
        noise_err: 1.5,
        model_err: 0.5,
        ci_lo: 21.0,
        ci_hi: 27.0,
        in_ci: true,
    };
    let query = TraceEvent::QueryAudit {
        query: 1,
        label: "fig1".into(),
        seed: 0,
        target: "Bmi".into(),
        n_objects: 1,
        predicted_mse: 3.5,
        training_mse: 3.0,
        realized_mse: 4.0,
        noise_mse: 2.25,
        model_mse: 0.25,
        cross_mse: 1.5,
        error_floor: 3.0,
        budget_truncation: 0.5,
        ci_level: 0.95,
        ci_coverage: 1.0,
        attrs: vec![AttrAudit {
            label: "Weight".into(),
            questions: 6,
            batches: 1,
            answers: 6,
            dropped: 0,
            fallbacks: 0,
            planned_sc: 2.0,
            realized_sc: 1.9,
        }],
    };
    let drift = TraceEvent::DriftUpdate {
        label: "fig1".into(),
        attr: "Weight".into(),
        metric: "answer_var".into(),
        reference: 2.0,
        ewma: -0.1,
        score: 0.4,
        threshold: 5.0,
        samples: 1,
        alarms: 0,
    };
    let text: String = [object, query, drift]
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    std::fs::write(&trace, &text).unwrap();

    let out = run(&["explain", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== query \"Bmi\""), "{stdout}");
    assert!(
        stdout.contains("error attribution (worst first):"),
        "{stdout}"
    );
    assert!(stdout.contains("crowd noise"), "{stdout}");
    assert!(stdout.contains("drift detectors:"), "{stdout}");
    assert!(stdout.contains("worst residuals:"), "{stdout}");

    let json = run(&["explain", trace.to_str().unwrap(), "--json"]);
    assert_eq!(json.status.code(), Some(0), "{json:?}");
    let doc = disq_trace::json::parse(String::from_utf8_lossy(&json.stdout).trim())
        .expect("explain --json emits valid JSON");
    assert_eq!(doc.get("well_formed").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        doc.get("queries").and_then(|q| q.as_arr()).map(<[_]>::len),
        Some(1)
    );

    // A ledger whose components do not sum to the realized MSE exits 1.
    let broken = dir.join("broken.jsonl");
    std::fs::write(
        &broken,
        text.replace("\"noise_mse\":2.25", "\"noise_mse\":9.0"),
    )
    .unwrap();
    let bad = run(&["explain", broken.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("malformed audit ledger"),
        "{bad:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_json_is_parseable() {
    let dir = tempdir("report-json");
    let trace = dir.join("run.jsonl");
    std::fs::write(
        &trace,
        disq_trace::TraceEvent::RunStart {
            label: "x".into(),
            seed: 1,
        }
        .to_json()
            + "\n",
    )
    .unwrap();
    let rj = run(&["report", trace.to_str().unwrap(), "--json"]);
    assert_eq!(rj.status.code(), Some(0), "{rj:?}");
    let doc = disq_trace::json::parse(String::from_utf8_lossy(&rj.stdout).trim())
        .expect("report --json emits valid JSON");
    assert_eq!(doc.get("parsed").and_then(|v| v.as_u64()), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workers_renders_scorecards_and_json() {
    use disq_trace::TraceEvent;
    let dir = tempdir("workers");
    let trace = dir.join("run.jsonl");
    let events = [
        TraceEvent::WorkerProfile {
            label: "fig1".into(),
            worker: 0,
            sd_multiplier: 1.0,
            spam_propensity: 0.0,
        },
        TraceEvent::WorkerProfile {
            label: "fig1".into(),
            worker: 1,
            sd_multiplier: 2.1,
            spam_propensity: 0.85,
        },
        TraceEvent::WorkerStats {
            label: "fig1".into(),
            seed: 0,
            worker: 0,
            binary_answers: 10,
            numeric_answers: 30,
            rejected: 1,
            spent_millicents: 13_000,
            residual_n: 20,
            residual_sum: 0.4,
            residual_sq: 19.0,
        },
        TraceEvent::WorkerStats {
            label: "fig1".into(),
            seed: 0,
            worker: 1,
            binary_answers: 8,
            numeric_answers: 24,
            rejected: 27,
            spent_millicents: 10_400,
            residual_n: 5,
            residual_sum: -1.0,
            residual_sq: 21.0,
        },
    ];
    let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
    std::fs::write(&trace, text).unwrap();

    let out = run(&["workers", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("worker scorecards:"), "{stdout}");
    assert!(stdout.contains("w0"), "{stdout}");
    assert!(stdout.contains("worst offenders"), "{stdout}");
    assert!(stdout.contains("Spearman"), "{stdout}");
    // The heavy spammer tops the offender table.
    let offender_section = stdout.split("worst offenders").nth(1).unwrap();
    let first_row = offender_section
        .lines()
        .find(|l| l.starts_with('w') && l[1..].starts_with(|c: char| c.is_ascii_digit()))
        .unwrap();
    assert!(first_row.starts_with("w1"), "{stdout}");

    let json = run(&["workers", trace.to_str().unwrap(), "--json"]);
    assert_eq!(json.status.code(), Some(0), "{json:?}");
    let doc = disq_trace::json::parse(String::from_utf8_lossy(&json.stdout).trim())
        .expect("workers --json emits valid JSON");
    assert_eq!(doc.get("stats_seen").and_then(|v| v.as_u64()), Some(2));
    let workers = doc.get("workers").and_then(|w| w.as_arr()).unwrap();
    assert_eq!(workers.len(), 2);
    let offenders = doc.get("offenders").and_then(|o| o.as_arr()).unwrap();
    assert_eq!(offenders[0].as_u64(), Some(1));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_data_inputs_exit_three_with_clear_messages() {
    use disq_trace::TraceEvent;
    let dir = tempdir("nodata");

    // Missing files: a clear message, no usage dump, exit 3.
    for cmd in ["explain", "workers", "slow"] {
        let gone = dir.join("nope.jsonl");
        let out = run(&[cmd, gone.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(3), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("does not exist"), "{cmd}: {stderr}");
        assert!(!stderr.contains("usage:"), "{cmd}: {stderr}");
    }

    // A trace with events but no audit ledger / worker events: exit 3.
    let trace = dir.join("empty-ledger.jsonl");
    std::fs::write(
        &trace,
        TraceEvent::RunStart {
            label: "x".into(),
            seed: 1,
        }
        .to_json()
            + "\n",
    )
    .unwrap();
    let explain = run(&["explain", trace.to_str().unwrap()]);
    assert_eq!(explain.status.code(), Some(3), "{explain:?}");
    assert!(
        String::from_utf8_lossy(&explain.stderr).contains("no audit ledger"),
        "{explain:?}"
    );
    let workers = run(&["workers", trace.to_str().unwrap()]);
    assert_eq!(workers.status.code(), Some(3), "{workers:?}");
    assert!(
        String::from_utf8_lossy(&workers.stderr).contains("no worker events"),
        "{workers:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    // The retired perf-gating subcommands are plain unknown commands.
    for cmd in ["compare", "trend"] {
        let out = run(&[cmd, "bench.json"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown command"),
            "{cmd}: {out:?}"
        );
    }
    // So is the report's retired harness-row option.
    assert_eq!(
        run(&["report", "run.jsonl", "--harness", "x.json"])
            .status
            .code(),
        Some(2)
    );
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage:"));
}
