//! The `disq-insight` CLI: run reports, Err(b) calibration scoring,
//! query explanations and span exports over DisQ trace artifacts.

use disq_insight::{calib, explain, flame, report, slow, timeline, workers};
use disq_trace::TraceReader;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
disq-insight: analytics over DisQ trace files

usage:
  disq-insight report <trace.jsonl> [--json]
      Aggregate a JSONL trace into a run report: budget attribution,
      dismantle decisions, SPRT summary, derived counters. --json emits
      the aggregates as one JSON object instead.

  disq-insight explain <trace.jsonl> [--json]
      EXPLAIN ANALYZE for crowd queries: per-query error attribution
      from the audit ledger (crowd noise vs model bias vs budget
      truncation, worst first), CI coverage, per-attribute answer
      streams, drift-detector status and the largest residuals.
      Exits 1 when the ledger is malformed (decomposition sum-check
      fails or object audits are missing), 3 when the trace file is
      missing or carries no audit ledger at all.

  disq-insight workers <trace.jsonl> [--json]
      Per-worker scorecards from the provenance ledger: answers, spend,
      observed spam rate, raw and James-Stein-shrunk quality (residual
      variance), the worst-offender ranking, and — when the traced run
      used DISQ_WORKER_MODEL=hetero — the Spearman rank agreement
      between shrunk quality and the planted profiles. Exits 3 when the
      trace file is missing or carries no worker events.

  disq-insight slow <slow-dump.jsonl> [--json]
      Critical-path analysis of one tail-latency dump
      (written by disq-serve under DISQ_SLOW_DIR when a request exceeds
      DISQ_SLOW_US or the rolling p99). Attributes the request's wall
      time to serving phases — plan lookup, plan compute (cache miss),
      batcher wait (contended crowd lock), crowd batch flush (older
      dumps), estimation kernel, regression — and prints the
      heaviest-child chain from the request span down.
      Exits 1 when the dump is malformed (truncated span forest or
      unmatched ends), 3 when the file is missing or holds no request
      span.

  disq-insight calib <trace.jsonl>
      Score the Err(b) error model against realized per-object MSE
      (requires query_audit events from a traced bench run).

  disq-insight timeline <trace.jsonl> [-o <out.json>]
      Export the span/event stream as Chrome trace-event JSON; open the
      result in chrome://tracing or https://ui.perfetto.dev. Spans become
      nested complete events per thread, budget spend and trio growth
      become counter tracks, other events become instants.

  disq-insight flame <trace.jsonl> [--folded] [--bytes]
      Fold spans into a hierarchy. Default: ASCII tree with per-span
      count, total time, self time, allocated bytes and questions.
      --folded emits classic folded stacks (`a;b;c value`) for
      flamegraph.pl/speedscope, valued in self-microseconds, or
      self-allocated-bytes with --bytes.

  Live metrics are not this tool's job: the disq-serve daemon serves
      Prometheus text on GET /metrics.

  Performance regressions are judged by the disq-benchmark package
  (see disq-benchmark/README.md), not by this tool.

exit codes: 0 = success, 1 = malformed input (ledger or slow dump),
2 = usage error, 3 = no data (missing or empty input where an empty
result is meaningful, not an error: explain, workers, slow).
";

/// Exit code for "the input exists conceptually but holds no data" —
/// distinct from usage errors (2) so scripts can branch on it.
const EXIT_NO_DATA: u8 = 3;

/// The graceful no-data exit: a clear one-line message on stderr, no
/// usage dump, exit code [`EXIT_NO_DATA`].
fn no_data(message: String) -> Result<ExitCode, String> {
    eprintln!("{message}");
    Ok(ExitCode::from(EXIT_NO_DATA))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("workers") => cmd_workers(&args[1..]),
        Some("slow") => cmd_slow(&args[1..]),
        Some("calib") => cmd_calib(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("flame") => cmd_flame(&args[1..]),
        Some("--help" | "-h" | "help") => {
            out(USAGE);
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("no command given".into()),
    }
}

/// Write to stdout, swallowing `BrokenPipe` so `disq-insight report | head`
/// truncates cleanly instead of panicking (exit codes stay meaningful).
fn out(text: &str) {
    let _ = std::io::stdout().lock().write_all(text.as_bytes());
}

fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, String> {
    TraceReader::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))
}

/// Parses `<file> [--json]`; `missing` is the error when no file is
/// given.
fn file_and_json(args: &[String], missing: &str) -> Result<(PathBuf, bool), String> {
    let mut file: Option<PathBuf> = None;
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            _ if file.is_none() => file = Some(a.into()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok((file.ok_or(missing)?, json))
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let (trace, json) = file_and_json(args, "report: missing <trace.jsonl>")?;
    let report = report::RunReport::from_reader(open(&trace)?);
    if json {
        out(&report.to_json());
        out("\n");
    } else {
        out(&report.render());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(args: &[String]) -> Result<ExitCode, String> {
    let (trace, json) = file_and_json(args, "explain: missing <trace.jsonl>")?;
    if !trace.exists() {
        return no_data(format!(
            "explain: {} does not exist — nothing to explain",
            trace.display()
        ));
    }
    let report = explain::ExplainReport::from_reader(open(&trace)?);
    if report.queries.is_empty() && report.drift.is_empty() && report.alarms.is_empty() {
        return no_data(format!(
            "explain: no audit ledger in {} — re-run the benchmark with DISQ_TRACE \
             set so query audits are emitted",
            trace.display()
        ));
    }
    if json {
        out(&report.to_json());
        out("\n");
    } else {
        out(&report.render());
    }
    // A ledger that fails its own accounting is an error, not a report:
    // CI gates on this exit code.
    Ok(if report.well_formed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: malformed audit ledger (decomposition or object counts)");
        ExitCode::FAILURE
    })
}

fn cmd_workers(args: &[String]) -> Result<ExitCode, String> {
    let (trace, json) = file_and_json(args, "workers: missing <trace.jsonl>")?;
    if !trace.exists() {
        return no_data(format!(
            "workers: {} does not exist — nothing to score",
            trace.display()
        ));
    }
    let report = workers::WorkersReport::from_reader(open(&trace)?);
    if report.is_empty() {
        return no_data(format!(
            "workers: no worker events in {} — re-run the benchmark with DISQ_TRACE \
             set so the provenance ledger is emitted",
            trace.display()
        ));
    }
    if json {
        out(&report.to_json());
        out("\n");
    } else {
        out(&report.render());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_slow(args: &[String]) -> Result<ExitCode, String> {
    let (dump, json) = file_and_json(args, "slow: missing <slow-dump.jsonl>")?;
    if !dump.exists() {
        return no_data(format!(
            "slow: {} does not exist — disq-serve writes dumps under \
             DISQ_SLOW_DIR when a request trips the slow trigger",
            dump.display()
        ));
    }
    let Some(report) = slow::SlowReport::from_reader(&mut open(&dump)?) else {
        return no_data(format!(
            "slow: no request span in {} — not a slow-request dump",
            dump.display()
        ));
    };
    if report.skipped > 0 {
        eprintln!("warning: skipped {} corrupt dump lines", report.skipped);
    }
    if json {
        out(&report.to_json());
        out("\n");
    } else {
        out(&report.render());
    }
    // A dump whose span forest does not close is useless for critical-
    // path claims: signal it so CI catches a capture cut at its cap.
    Ok(if report.well_formed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: malformed dump (open spans or unmatched ends)");
        ExitCode::FAILURE
    })
}

fn cmd_calib(args: &[String]) -> Result<ExitCode, String> {
    let [trace] = args else {
        return Err("calib: expected exactly <trace.jsonl>".into());
    };
    let report = explain::ExplainReport::from_reader(open(Path::new(trace))?);
    if let Some(w) = &report.skip_warning {
        eprintln!("{w}");
    }
    out(&calib::CalibReport::build(&report.queries).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeline(args: &[String]) -> Result<ExitCode, String> {
    let mut trace: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out_path = Some(next_value(&mut it, "-o")?.into()),
            _ if trace.is_none() => trace = Some(a.into()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let trace = trace.ok_or("timeline: missing <trace.jsonl>")?;
    let mut reader = open(&trace)?;
    let tl = timeline::Timeline::from_reader(&mut reader);
    if let Some(w) = reader.skip_warning() {
        eprintln!("{w}");
    }
    let rendered = tl.render();
    timeline::validate(&rendered).map_err(|e| format!("internal: invalid timeline: {e}"))?;
    match out_path {
        Some(p) => {
            std::fs::write(&p, &rendered)
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            eprintln!("{} -> {}", tl.summary_line(), p.display());
        }
        None => {
            out(&rendered);
            eprintln!("{}", tl.summary_line());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_flame(args: &[String]) -> Result<ExitCode, String> {
    let mut trace: Option<PathBuf> = None;
    let mut folded = false;
    let mut bytes = false;
    for a in args {
        match a.as_str() {
            "--folded" => folded = true,
            "--bytes" => bytes = true,
            _ if trace.is_none() => trace = Some(a.into()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if bytes && !folded {
        return Err("flame: --bytes only applies to --folded output".into());
    }
    let trace = trace.ok_or("flame: missing <trace.jsonl>")?;
    let mut reader = open(&trace)?;
    let fg = flame::FlameGraph::from_reader(&mut reader);
    if let Some(w) = reader.skip_warning() {
        eprintln!("{w}");
    }
    if fg.roots.is_empty() {
        return Err(format!(
            "no spans in {} (re-run the traced workload with this build?)",
            trace.display()
        ));
    }
    out(&if folded {
        fg.render_folded(bytes)
    } else {
        fg.render_tree()
    });
    Ok(ExitCode::SUCCESS)
}

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}
