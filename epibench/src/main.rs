//! The epistemic database's benchmark: four closed-loop workloads
//! against the real `ServingDb` (and, on `registrar_mixed`, the real TCP
//! server), every answer checked against an oracle, every run ending in
//! a recovery of its directory. See `README.md` beside this crate.
//!
//! ```text
//! epibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! epibench --selftest
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics `BENCHMARK.json` lists with `--trace 0`, the
//! per-layer ones with `--trace 1`. A run whose gate fails exits with
//! code 1.

mod gen;
mod run;
mod stats;
mod trace;

use run::{Config, Corrupt, Report, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The longest measured window. A traced run adds set-up (about 15 s),
/// a shadow replay of up to half the window and a recovery, and must
/// still end well within the watchdog's limit.
const MAX_SECONDS: f64 = 60.0;
/// No run outlives this.
const RUN_LIMIT: Duration = Duration::from_secs(175);

const USAGE: &str =
    "usage: epibench --workload <registrar_mixed|registrar_read|closure_churn|closure_ask> \
--seed <n> --seconds <s> --trace <0|1>\n       epibench --selftest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--selftest") {
        watchdog(Duration::from_secs(600));
        return if selftest(&root) {
            println!("selftest passed");
            ExitCode::SUCCESS
        } else {
            println!("selftest FAILED");
            ExitCode::FAILURE
        };
    }
    let cfg = match parse_args(&args, root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    watchdog(RUN_LIMIT);
    match run::run(&cfg) {
        Ok(report) => {
            print_report(&cfg, &report);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String], root: PathBuf) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::RegistrarMixed,
        seed: gen::DEV_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt_oracle: None,
        root,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// End the process if a run wedges, so no run outlives its time limit.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("epibench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
}

fn print_report(cfg: &Config, r: &Report) {
    let name = cfg.workload.name();
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  ({} seed {}, held-out seed {})",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.seed == gen::DEV_SEED {
            "development"
        } else {
            "other"
        },
        gen::DEV_SEED,
        gen::HELD_OUT_SEED,
    );
    println!(
        "flush policy: ServeOptions::default() = one fdatasync per writer batch, queue_depth 128, max_batch 64"
    );
    println!(
        "threads: EPILOG_THREADS={}, effective budget {}, available parallelism {}",
        std::env::var("EPILOG_THREADS").unwrap_or_else(|_| "unset".into()),
        threadpool::configured(),
        threadpool::available()
    );
    for line in &r.lines {
        println!("{line}");
    }
    for m in &r.e2e.0 {
        let label = if run::GATED.contains(&m.name) {
            "metric"
        } else {
            "printed only:"
        };
        println!(
            "{label} {:24} {:>14.4} {:5} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "failed_ratio {} ({} of {} operations failed, were refused or answered wrongly)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for f in &r.failures {
        println!("FAILED: {f}");
    }
    let out_dir = cfg.root.join(".bench_out");
    let last = out_dir.join(format!("e2e-{name}.txt"));
    if cfg.trace {
        for m in &r.layer.0 {
            println!("layer {:28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        print_overhead(&last, r);
        let path = out_dir.join(format!("trace-{name}-seed{}.jsonl", cfg.seed));
        match trace::write_jsonl(&r.spans, &path) {
            Ok(()) => println!("{} spans written to {}", r.spans.len(), path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    } else if r.failed == 0 {
        let text: String = r
            .e2e
            .0
            .iter()
            .map(|m| format!("{} {}\n", m.name, m.value))
            .collect();
        let _ = std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&last, text));
    }
    let metrics = if cfg.trace {
        r.layer.json_of(&run::LAYERS)
    } else {
        r.e2e.json_of(&run::GATED)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
    );
}

/// The tracing overhead: this traced run's end-to-end figures against
/// the last untraced run of the same workload in this directory.
fn print_overhead(last: &Path, r: &Report) {
    let Ok(text) = std::fs::read_to_string(last) else {
        println!("tracing overhead: no untraced run of this workload recorded yet");
        return;
    };
    println!("tracing overhead (traced run vs last untraced run):");
    for line in text.lines() {
        let Some((name, v)) = line.split_once(' ') else {
            continue;
        };
        let (Ok(base), Some(traced)) = (v.parse::<f64>(), r.e2e.get(name)) else {
            continue;
        };
        println!(
            "  {name:24} untraced {base:>12.4}  traced {traced:>12.4}  gap {:+.1}%",
            100.0 * (traced - base) / base
        );
    }
}

/// Run every workload at smoke size through the full gate, then check
/// that the gate fails when an expected answer is wrong or stale.
fn selftest(root: &Path) -> bool {
    let mut ok = true;
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let cfg = Config {
            workload: w,
            seed: gen::DEV_SEED + i as u64,
            seconds: 1.0,
            trace: i % 2 == 0,
            smoke: true,
            corrupt_oracle: None,
            root: root.to_path_buf(),
        };
        match run::run(&cfg) {
            Ok(r) if r.failed == 0 && r.attempted > 0 && !r.e2e.0.is_empty() => {
                println!("smoke {}: ok, {} operations checked", w.name(), r.attempted);
            }
            Ok(r) => {
                println!(
                    "smoke {}: {} of {} failed: {:?}",
                    w.name(),
                    r.failed,
                    r.attempted,
                    r.failures
                );
                ok = false;
            }
            Err(e) => {
                println!("smoke {}: {e}", w.name());
                ok = false;
            }
        }
    }
    // A flipped answer, then on every workload that writes, an answer
    // one write behind: both must fail the gate.
    for (w, corrupt) in [
        (Workload::RegistrarMixed, Corrupt::Flip),
        (Workload::ClosureChurn, Corrupt::Flip),
        (Workload::RegistrarMixed, Corrupt::Stale),
        (Workload::ClosureChurn, Corrupt::Stale),
        (Workload::ClosureAsk, Corrupt::Stale),
    ] {
        let cfg = Config {
            workload: w,
            seed: gen::DEV_SEED,
            seconds: 2.0,
            trace: false,
            smoke: true,
            corrupt_oracle: Some(corrupt),
            root: root.to_path_buf(),
        };
        match run::run(&cfg) {
            Ok(r) if r.failed > 0 => {
                println!("{corrupt:?} oracle on {}: gate failed as it must", w.name())
            }
            _ => {
                println!("{corrupt:?} oracle on {}: the gate did NOT fail", w.name());
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_passes_and_a_wrong_oracle_fails() {
        let root = std::env::current_dir()
            .unwrap()
            .join("target")
            .join("selftest");
        std::fs::create_dir_all(&root).unwrap();
        assert!(super::selftest(&root));
    }
}
