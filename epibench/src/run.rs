//! The four workloads, the correctness and durability gate, and the
//! shadow replay that times the writer-side layers.

use crate::gen::{
    rows_answer, Answer, Closure, History, Model, Query, Registrar, Rng, Setup, Verdict, WriteOp,
};
use crate::stats::{mean, median, Metrics};
use crate::trace::{layer_times, Span, Tracer};
use epilog_core::{definite_program, CheckStats, EpistemicDb, IncrementalChecker, RuleGraph};
use epilog_datalog::{EvalStats, RulePlan};
use epilog_persist::wal::WAL_FILE;
use epilog_persist::{
    DurableDb, FsyncPolicy, ServeError, ServeOptions, ServeStats, ServingDb, TxOp, Wal, WalOp,
};
use epilog_server::{Client, Server};
use epilog_storage::Database;
use epilog_syntax::{parse, Formula, Theory};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RegistrarMixed,
    RegistrarRead,
    ClosureChurn,
    ClosureAsk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RegistrarMixed,
        Workload::RegistrarRead,
        Workload::ClosureChurn,
        Workload::ClosureAsk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegistrarMixed => "registrar_mixed",
            Workload::RegistrarRead => "registrar_read",
            Workload::ClosureChurn => "closure_churn",
            Workload::ClosureAsk => "closure_ask",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether `BENCHMARK.json` lists this workload.
    pub fn in_manifest(self) -> bool {
        matches!(self, Workload::RegistrarMixed | Workload::ClosureAsk)
    }
}

/// The end-to-end metrics `BENCHMARK.json` lists: the only ones in the
/// JSON line, and each measured on every workload it lists. The other
/// figures are printed for people. On a shared 2-core host they follow
/// the host's load more than the program (see README.md), or they do
/// not apply to one of the listed workloads.
pub const GATED: [&str; 5] = [
    "commit_assert_p50_ms",
    "commit_retract_p50_ms",
    "log_bytes_per_commit",
    "peak_rss_mb",
    "setup_s",
];

/// The per-layer metrics `BENCHMARK.json` lists: those a traced run
/// records on both listed workloads. `server.noop_rtt_ms` exists only
/// where the wire is (`registrar_mixed`), and `serve.commit_wait_ms` and
/// `serve.snapshot_us` only in-process, so those three are printed, not
/// listed.
pub const LAYERS: [&str; 27] = [
    "serve.commits_per_batch",
    "serve.fsyncs_per_commit",
    "serve.rejected",
    "wal.append_us",
    "wal.sync_us",
    "durable.recover_s",
    "txn.prepare_ms",
    "txn.apply_us",
    "check.ms",
    "check.specialized",
    "check.full",
    "check.skipped",
    "datalog.eval_ms",
    "datalog.rule_firings",
    "datalog.rows_examined",
    "datalog.tuples_overdeleted",
    "datalog.tuples_rederived",
    "datalog.support_checks",
    "mvcc.publish_clone_ms",
    "mvcc.model_tuples",
    "ask.cold_ms",
    "ask.warm_ms",
    "demo.ms",
    "demo.rows",
    "prover.sat_calls_per_ask",
    "prover.sat_free_ask_ratio",
    "prover.memo_entries",
];

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and a short warm-up, for the self-test.
    pub smoke: bool,
    /// A deliberate error in the oracle, for the self-test.
    pub corrupt_oracle: Option<Corrupt>,
    /// Directory the run's databases and trace files go under.
    pub root: PathBuf,
}

/// A deliberate error in the oracle: with either, the gate must fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Expect the opposite of the first read's answer.
    Flip,
    /// Expect the first answer that the write before it changed to be
    /// the one a snapshot one write behind would give.
    Stale,
}

/// Workload sizes. The full sizes are the ones `BENCHMARK.json`'s
/// figures are measured at; `smoke` shrinks everything so all four
/// workloads and the full gate run in seconds.
struct Sizes {
    registrar_n: usize,
    /// Ids `registrar_mixed` hires in turn: one in the smoke run, so
    /// every write changes the answer about it.
    hire_pool: usize,
    /// (edges, back-edge span)
    churn: (usize, usize),
    ask: (usize, usize),
    registrar_setups: usize,
    /// Set-ups per run of `closure_churn` and of `closure_ask`.
    closure_setups: (usize, usize),
    warmup: Duration,
    noop_probes: usize,
    /// `closure_ask`'s writer pause after each retraction.
    ask_pause: Duration,
}

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                registrar_n: 4,
                hire_pool: 1,
                churn: (12, 4),
                ask: (8, 4),
                registrar_setups: 2,
                closure_setups: (2, 2),
                warmup: Duration::from_millis(100),
                noop_probes: 3,
                ask_pause: Duration::from_millis(5),
            }
        } else {
            Sizes {
                registrar_n: 64,
                hire_pool: 2,
                churn: (128, 16),
                ask: (32, 16),
                registrar_setups: 5,
                closure_setups: (5, 40),
                warmup: Duration::from_millis(500),
                noop_probes: 20,
                ask_pause: Duration::from_millis(25),
            }
        }
    }
}

/// The result of one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub lines: Vec<String>,
    pub spans: Vec<Span>,
}

// ----- shared plumbing ------------------------------------------------------

/// The measured interval: operations started before `start` are
/// warm-up (checked, not timed); workers stop at `end`.
#[derive(Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
}

impl Window {
    fn new(warmup: Duration, seconds: f64) -> Window {
        let start = Instant::now() + warmup;
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
        }
    }

    fn measured(&self, t: Instant) -> bool {
        t >= self.start
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for f in o.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Latencies (ms) of operations started inside the window.
#[derive(Default)]
struct Lat {
    assert: Vec<f64>,
    retract: Vec<f64>,
    ask: Vec<f64>,
    demo: Vec<f64>,
    /// Acknowledged commits / completed reads inside the window.
    commits: u64,
    reads: u64,
    /// Acknowledged commits over the whole run (warm-up included).
    acked_total: u64,
    /// When the last measured commit / read finished: throughput is
    /// counted over the time the measured operations actually took.
    commits_end: Option<Instant>,
    reads_end: Option<Instant>,
}

impl Lat {
    fn absorb(&mut self, o: Lat) {
        self.assert.extend(o.assert);
        self.retract.extend(o.retract);
        self.ask.extend(o.ask);
        self.demo.extend(o.demo);
        self.commits += o.commits;
        self.reads += o.reads;
        self.acked_total += o.acked_total;
        self.commits_end = self.commits_end.max(o.commits_end);
        self.reads_end = self.reads_end.max(o.reads_end);
    }

    /// Operations per second from the window's start to `end`.
    fn rate(count: u64, start: Instant, end: Option<Instant>) -> Option<f64> {
        end.map(|e| count as f64 / (e - start).as_secs_f64())
    }
}

/// Read-path counts gathered while tracing.
#[derive(Default)]
struct ReadTally {
    asks: u64,
    sat_calls: u64,
    sat_free: u64,
    memo_entries: u64,
    demos: u64,
    demo_rows: u64,
}

impl ReadTally {
    fn ask(&mut self, sat_calls: u64, memo: usize) {
        self.asks += 1;
        self.sat_calls += sat_calls;
        self.sat_free += u64::from(sat_calls == 0);
        self.memo_entries += memo as u64;
    }

    fn absorb(&mut self, o: ReadTally) {
        self.asks += o.asks;
        self.sat_calls += o.sat_calls;
        self.sat_free += o.sat_free;
        self.memo_entries += o.memo_entries;
        self.demos += o.demos;
        self.demo_rows += o.demo_rows;
    }
}

struct ReadRec {
    qid: usize,
    lsn: u64,
    answer: Answer,
}

/// An operation's outcome and its latency in milliseconds.
type Timed<T> = (Result<T, String>, f64);

/// A commit's outcome and the LSN it reports.
enum Reply {
    Committed(u64),
    Rejected(u64),
}

/// Everything the worker threads of one run hand back.
struct Collected<M: Model> {
    hist: History<M>,
    /// The writes attempted, in stream order.
    ops: Vec<WriteOp>,
    recs: Vec<ReadRec>,
    lat: Lat,
    tally: Tally,
    reads: ReadTally,
    spans: Vec<Span>,
}

impl<M: Model> Collected<M> {
    fn new(hist: History<M>) -> Collected<M> {
        Collected {
            hist,
            ops: Vec::new(),
            recs: Vec::new(),
            lat: Lat::default(),
            tally: Tally::default(),
            reads: ReadTally::default(),
            spans: Vec::new(),
        }
    }
}

/// The closed-loop writer: one write at a time from the seeded stream,
/// each acknowledged LSN checked against the oracle's.
fn writer_loop<M: Model>(
    model: &M,
    out: &mut Collected<M>,
    stream: impl Iterator<Item = WriteOp>,
    win: Window,
    tr: &mut Tracer,
    pause_after_retract: Duration,
    mut commit: impl FnMut(&WriteOp, &mut Tracer, u64) -> Timed<Reply>,
) {
    for (k, op) in stream.enumerate() {
        let t0 = Instant::now();
        if t0 >= win.end {
            break;
        }
        out.tally.attempted += 1;
        let (reply, ms) = commit(&op, tr, k as u64);
        match (reply, op.expect_reject) {
            (Ok(Reply::Committed(lsn)), expect_reject) => {
                let want = out.hist.push(model, &op);
                out.lat.acked_total += 1;
                if expect_reject {
                    out.tally.fail(format!(
                        "write {k} {op:?} was accepted; the constraints forbid it"
                    ));
                } else if lsn != want {
                    out.tally.fail(format!(
                        "write {k} acknowledged at LSN {lsn}, oracle says {want}"
                    ));
                } else if win.measured(t0) {
                    out.lat.commits += 1;
                    out.lat.commits_end = Some(Instant::now());
                    if op.is_assert() {
                        out.lat.assert.push(ms);
                    } else {
                        out.lat.retract.push(ms);
                    }
                }
            }
            (Ok(Reply::Rejected(lsn)), true) => {
                let head = out.hist.head_lsn();
                if lsn != head {
                    out.tally.fail(format!(
                        "write {k} rejected at LSN {lsn}, oracle head is {head}"
                    ));
                }
            }
            (Ok(Reply::Rejected(_)), false) => {
                out.tally.fail(format!("write {k} {op:?} was rejected"));
            }
            (Err(e), _) => out.tally.fail(format!("write {k}: {e}")),
        }
        if !op.is_assert() {
            std::thread::sleep(pause_after_retract);
        }
        out.ops.push(op);
    }
}

/// A closed-loop reader: one query at a time, answers kept for checking
/// after the run.
fn reader_loop<M: Model>(
    out: &mut Collected<M>,
    queries: &[Query],
    mut pick: impl FnMut() -> usize,
    win: Window,
    tr: &mut Tracer,
    mut read: impl FnMut(usize, &mut Tracer, u64) -> Timed<(u64, Answer)>,
) {
    for k in 0u64.. {
        let t0 = Instant::now();
        if t0 >= win.end {
            break;
        }
        out.tally.attempted += 1;
        let qid = pick();
        let (r, ms) = read(qid, tr, k);
        match r {
            Ok((lsn, answer)) => {
                out.recs.push(ReadRec { qid, lsn, answer });
                if win.measured(t0) {
                    out.lat.reads += 1;
                    out.lat.reads_end = Some(Instant::now());
                    if queries[qid].demo {
                        out.lat.demo.push(ms);
                    } else {
                        out.lat.ask.push(ms);
                    }
                }
            }
            Err(e) => out.tally.fail(format!("{}: {e}", queries[qid].text)),
        }
    }
}

fn formula(text: &str) -> Result<Formula, String> {
    parse(text).map_err(|e| format!("{text:?} does not parse: {e}"))
}

fn tx_ops(op: &WriteOp) -> Result<Vec<TxOp>, String> {
    let mut ops = Vec::new();
    for r in &op.retracts {
        ops.push(TxOp::Retract(formula(r)?));
    }
    for a in &op.asserts {
        ops.push(TxOp::Assert(formula(a)?));
    }
    Ok(ops)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Commit through `ServingDb::commit_wait`, timing the call.
fn local_commit<'a>(
    db: &'a ServingDb,
) -> impl FnMut(&WriteOp, &mut Tracer, u64) -> Timed<Reply> + 'a {
    move |op, tr, req| {
        let ops = match tx_ops(op) {
            Ok(ops) => ops,
            Err(e) => return (Err(e), 0.0),
        };
        let t0 = Instant::now();
        let r = tr.span("serve.commit_wait", req, false, |_| db.commit_wait(ops));
        let ms = ms_since(t0);
        let reply = match r {
            Ok(receipt)
                if receipt.report.asserted == op.asserts.len()
                    && receipt.report.retracted == op.retracts.len() =>
            {
                Ok(Reply::Committed(receipt.lsn))
            }
            Ok(receipt) => Err(format!(
                "receipt +{} -{} for a write of +{} -{}",
                receipt.report.asserted,
                receipt.report.retracted,
                op.asserts.len(),
                op.retracts.len()
            )),
            Err(ServeError::Db(_, lsn)) => Ok(Reply::Rejected(lsn)),
            Err(e) => Err(e.to_string()),
        };
        (reply, ms)
    }
}

/// Read from a `ServingDb` snapshot, timing snapshot plus query.
fn local_read<'a>(
    db: &'a ServingDb,
    queries: &'a [Query],
    parsed: &'a [Formula],
    tally: &'a mut ReadTally,
) -> impl FnMut(usize, &mut Tracer, u64) -> Timed<(u64, Answer)> + 'a {
    move |qid, tr, req| {
        let t0 = Instant::now();
        tr.span("read", req, false, |tr| {
            let snap = tr.span("serve.snapshot", req, false, |_| db.snapshot());
            if queries[qid].demo {
                let rows = tr.span("demo", req, false, |_| snap.demo_all(&parsed[qid]));
                let ms = ms_since(t0);
                let rows = match rows {
                    Ok(rows) => rows,
                    Err(e) => return (Err(e.to_string()), ms),
                };
                if tr.on() {
                    tally.demos += 1;
                    tally.demo_rows += rows.len() as u64;
                }
                let rows: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| r.iter().map(ToString::to_string).collect())
                    .collect();
                (Ok((snap.lsn(), rows_answer(&rows))), ms)
            } else {
                let before = snap.prover().sat_calls();
                let a = tr.span("ask", req, false, |_| snap.ask(&parsed[qid]));
                let ms = ms_since(t0);
                if tr.on() {
                    let calls = snap.prover().sat_calls().saturating_sub(before);
                    tally.ask(calls, snap.prover().memo_len());
                }
                let v = match a {
                    epilog_core::Answer::Yes => Verdict::Yes,
                    epilog_core::Answer::No => Verdict::No,
                    epilog_core::Answer::Unknown => Verdict::Unknown,
                };
                (Ok((snap.lsn(), Answer::Verdict(v))), ms)
            }
        })
    }
}

/// `… @<lsn>` at the end of a reply line.
fn reply_lsn(line: &str) -> Result<u64, String> {
    line.rsplit_once(" @")
        .and_then(|(_, l)| l.split_whitespace().next())
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("no LSN in reply {line:?}"))
}

fn request(client: &mut Client, line: &str) -> Result<String, String> {
    client.request(line).map_err(|e| format!("{line:?}: {e}"))
}

/// Read over the wire with the shipped `Client`, timed up to the last
/// `row` line.
fn tcp_read<'a>(
    client: &'a mut Client,
    queries: &'a [Query],
) -> impl FnMut(usize, &mut Tracer, u64) -> Timed<(u64, Answer)> + 'a {
    move |qid, tr, req| {
        let q = &queries[qid];
        let line = format!("{} {}", if q.demo { "demo" } else { "ask" }, q.text);
        let t0 = Instant::now();
        let got = tr.span("client.request", req, false, |_| {
            let head = request(client, &line)?;
            let mut rows = Vec::new();
            if q.demo {
                let n: usize = head
                    .strip_prefix("ok rows ")
                    .and_then(|r| r.split(' ').next())
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| format!("bad demo reply {head:?}"))?;
                for _ in 0..n {
                    rows.push(client.read_line().map_err(|e| e.to_string())?);
                }
            }
            Ok::<_, String>((head, rows))
        });
        let ms = ms_since(t0);
        let parsed = got.and_then(|(head, rows)| {
            let lsn = reply_lsn(&head)?;
            if q.demo {
                let rows: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| {
                        r.strip_prefix("row")
                            .unwrap_or(r)
                            .split_whitespace()
                            .map(str::to_string)
                            .collect()
                    })
                    .collect();
                Ok((lsn, rows_answer(&rows)))
            } else {
                let word = head
                    .strip_prefix("ok ")
                    .and_then(|r| r.split(' ').next())
                    .and_then(Verdict::parse)
                    .ok_or_else(|| format!("bad ask reply {head:?}"))?;
                Ok((lsn, Answer::Verdict(word)))
            }
        });
        (parsed, ms)
    }
}

/// Commit over the wire: `begin`, one line per sentence, `commit`; only
/// the `commit` request is timed.
fn tcp_commit<'a>(
    client: &'a mut Client,
) -> impl FnMut(&WriteOp, &mut Tracer, u64) -> Timed<Reply> + 'a {
    move |op, tr, req| {
        let mut lines = vec!["begin".to_string()];
        lines.extend(op.retracts.iter().map(|r| format!("retract {r}")));
        lines.extend(op.asserts.iter().map(|a| format!("assert {a}")));
        for line in &lines {
            match request(client, line) {
                Ok(r) if r.starts_with("ok ") => {}
                Ok(r) => return (Err(format!("{line:?} answered {r:?}")), 0.0),
                Err(e) => return (Err(e), 0.0),
            }
        }
        let t0 = Instant::now();
        let r = tr.span("client.request", req, false, |_| request(client, "commit"));
        let ms = ms_since(t0);
        let want = format!("+{} -{}", op.asserts.len(), op.retracts.len());
        let reply = r.and_then(|r| {
            if r.starts_with("ok committed @") && r.ends_with(&want) {
                reply_lsn(&r).map(Reply::Committed)
            } else if r.starts_with("err rejected:") {
                reply_lsn(&r).map(Reply::Rejected)
            } else {
                Err(format!("commit answered {r:?}"))
            }
        });
        (reply, ms)
    }
}

/// Build a served database at `dir` by `plan`. Returns it with the
/// seconds it took.
fn set_up(dir: &Path, plan: &Setup) -> Result<(ServingDb, f64), String> {
    let t0 = Instant::now();
    let theory = Theory::from_text(&plan.theory).map_err(|e| e.to_string())?;
    let db = ServingDb::create(dir, theory, ServeOptions::default()).map_err(|e| e.to_string())?;
    for ic in &plan.constraints {
        db.add_constraint(formula(ic)?)
            .map_err(|e| format!("constraint {ic:?}: {e}"))?;
    }
    for op in &plan.writes {
        db.commit_wait(tx_ops(op)?)
            .map_err(|e| format!("set-up write {op:?}: {e}"))?;
    }
    Ok((db, t0.elapsed().as_secs_f64()))
}

/// Set up `reps` times and keep the last database; the median of the
/// set-up times is `setup_s`.
fn set_up_reps(
    run_dir: &Path,
    plan: &Setup,
    reps: usize,
) -> Result<(ServingDb, PathBuf, Vec<f64>), String> {
    let mut times = Vec::new();
    for r in 0..reps {
        let dir = run_dir.join(format!("db{r}"));
        let (db, secs) = set_up(&dir, plan)?;
        times.push(secs);
        if r + 1 == reps {
            return Ok((db, dir, times));
        }
        db.shutdown().map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Err("no set-up repetitions".into())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| if m.is_dir() { 0 } else { m.len() })
                .sum()
        })
        .unwrap_or(0)
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Check every recorded read against the oracle state at its LSN.
fn verify_reads<M: Model>(
    model: &M,
    c: &mut Collected<M>,
    queries: &[Query],
    corrupt: Option<Corrupt>,
) {
    let mut stale_done = false;
    for (i, r) in c.recs.iter().enumerate() {
        let text = &queries[r.qid].text;
        match c.hist.expect(model, queries, r.qid, r.lsn) {
            None => c.tally.fail(format!(
                "{text} answered at LSN {}, which no acknowledged write produced",
                r.lsn
            )),
            Some(mut want) => {
                match corrupt {
                    Some(Corrupt::Flip) if i == 0 => {
                        want = match want {
                            Answer::Verdict(Verdict::Yes) => Answer::Verdict(Verdict::No),
                            Answer::Verdict(_) => Answer::Verdict(Verdict::Yes),
                            Answer::Rows(n, d) => Answer::Rows(n + 1, d),
                        };
                    }
                    Some(Corrupt::Stale) if !stale_done && r.lsn > c.hist.base_lsn() => {
                        let old = c.hist.expect(model, queries, r.qid, r.lsn - 1);
                        if let Some(old) = old.filter(|&old| old != want) {
                            want = old;
                            stale_done = true;
                        }
                    }
                    _ => {}
                }
                if want != r.answer {
                    c.tally.fail(format!(
                        "{text} @{}: got {:?}, oracle says {want:?}",
                        r.lsn, r.answer
                    ));
                }
            }
        }
    }
}

/// The durability gate: recover the directory and require the head LSN
/// to be the last acknowledged one and the state to be the oracle's.
fn recovery_gate<M: Model>(
    model: &M,
    c: &mut Collected<M>,
    dir: &Path,
    constraints: usize,
) -> Option<f64> {
    let t0 = Instant::now();
    let recovered = DurableDb::recover(dir, FsyncPolicy::Never);
    let secs = t0.elapsed().as_secs_f64();
    let (db, report) = match recovered {
        Ok(r) => r,
        Err(e) => {
            c.tally.fail(format!("recovery failed: {e}"));
            return None;
        }
    };
    let want_lsn = c.hist.head_lsn();
    if report.last_lsn != want_lsn || db.last_lsn() != want_lsn {
        c.tally.fail(format!(
            "recovered head LSN {} (report {}), last acknowledged {want_lsn}",
            db.last_lsn(),
            report.last_lsn
        ));
    }
    if !report.rejected.is_empty() {
        c.tally
            .fail(format!("recovery rejected records: {:?}", report.rejected));
    }
    let canon = |t: &str| {
        parse(t)
            .map(|f| f.to_string())
            .unwrap_or_else(|_| t.to_string())
    };
    let mut want: Vec<String> = model
        .sentences(c.hist.head())
        .iter()
        .map(|s| canon(s))
        .collect();
    let mut got: Vec<String> = db
        .theory()
        .sentences()
        .iter()
        .map(ToString::to_string)
        .collect();
    want.sort();
    got.sort();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|s| !got.contains(s)).take(3).collect();
        let extra: Vec<_> = got.iter().filter(|s| !want.contains(s)).take(3).collect();
        c.tally.fail(format!(
            "recovered state differs from the oracle: missing {missing:?}, extra {extra:?}"
        ));
    }
    if db.constraints().len() != constraints {
        c.tally.fail(format!(
            "recovered {} constraints, want {constraints}",
            db.constraints().len()
        ));
    }
    Some(secs)
}

// ----- the workloads --------------------------------------------------------

/// What a workload hands to [`finish`].
struct Ran<M: Model> {
    c: Collected<M>,
    queries: Vec<Query>,
    win: Window,
    dir: PathBuf,
    /// Directory bytes right after set-up.
    setup_bytes: u64,
    setup: Vec<f64>,
    plan: Setup,
    stats: (ServeStats, ServeStats),
    /// Queries the shadow replay asks / demos after each publish.
    replay_ask: Option<Box<dyn Fn(usize) -> String>>,
    replay_demo: Option<Box<dyn Fn(usize) -> String>>,
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let run_dir = cfg.root.join(".bench_run").join(format!(
        "{}-s{}-p{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;
    let sizes = Sizes::of(cfg.smoke);
    let epoch = Instant::now();
    let out = match cfg.workload {
        Workload::RegistrarMixed => {
            let model = Registrar {
                n: sizes.registrar_n,
                pool: sizes.hire_pool,
            };
            registrar_mixed(cfg, &sizes, &model, &run_dir, epoch)
                .and_then(|ran| finish(cfg, &model, ran, &run_dir, epoch))
        }
        Workload::RegistrarRead => {
            let model = Registrar {
                n: sizes.registrar_n,
                pool: sizes.hire_pool,
            };
            registrar_read(cfg, &sizes, &model, &run_dir, epoch)
                .and_then(|ran| finish(cfg, &model, ran, &run_dir, epoch))
        }
        Workload::ClosureChurn | Workload::ClosureAsk => {
            let (edges, span) = if cfg.workload == Workload::ClosureChurn {
                sizes.churn
            } else {
                sizes.ask
            };
            let model = Closure { edges, span };
            closure(cfg, &sizes, &model, &run_dir, epoch)
                .and_then(|ran| finish(cfg, &model, ran, &run_dir, epoch))
        }
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    out
}

/// §3 registrar at n=64 behind `Server::start` on loopback: one `Client`
/// hires and fires, the other alternates `ask` and `demo`.
fn registrar_mixed(
    cfg: &Config,
    sizes: &Sizes,
    model: &Registrar,
    run_dir: &Path,
    epoch: Instant,
) -> Result<Ran<Registrar>, String> {
    let plan = model.setup();
    let (db, dir, setup) = set_up_reps(run_dir, &plan, sizes.registrar_setups)?;
    let setup_bytes = dir_bytes(&dir);
    let base = db.head_lsn();
    let server = Server::start(db, "127.0.0.1:0").map_err(|e| format!("server: {e}"))?;
    let addr = server.local_addr();
    let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let (mut wc, mut rc) = (connect()?, connect()?);
    let stats0 = server.stats();
    let queries = model.queries();
    let win = Window::new(sizes.warmup, cfg.seconds);
    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut c = Collected::new(History::new(model, base));
            let mut tr = Tracer::new(cfg.trace, epoch, 1);
            writer_loop(
                model,
                &mut c,
                model.writes(cfg.seed),
                win,
                &mut tr,
                Duration::ZERO,
                tcp_commit(&mut wc),
            );
            c.spans = tr.spans;
            c
        });
        let reader = s.spawn(|| {
            let mut c: Collected<Registrar> = Collected::new(History::new(model, base));
            let mut tr = Tracer::new(cfg.trace, epoch, 2);
            let mut rng = Rng::new(cfg.seed, 2);
            let n = model.n;
            let pool = model.hire_pool();
            // Ask, demo, ask, demo: the first ask of each four reads
            // names any employee of `0..2n`, the second one of the ids
            // being hired and fired, whose answer follows the writes.
            let mut k = 0usize;
            let pick = || {
                k += 1;
                match k % 4 {
                    1 => model.ask_ss(rng.below(2 * n)),
                    3 => model.ask_ss(pool.start + rng.below(pool.len())),
                    _ => model.demo_emp_not_person(),
                }
            };
            reader_loop(
                &mut c,
                &queries,
                pick,
                win,
                &mut tr,
                tcp_read(&mut rc, &queries),
            );
            if cfg.trace {
                // The wire's cost with no work behind it.
                for k in 0..sizes.noop_probes {
                    let r = tr.span("server.noop", k as u64, false, |_| {
                        request(&mut rc, "stats")
                    });
                    if let Err(e) = r {
                        c.tally.fail(e);
                    }
                }
            }
            c.spans = tr.spans;
            c
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    drop((wc, rc));
    let stats1 = server.stats();
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    let c = merge(w, vec![r]);
    let n = model.n;
    Ok(Ran {
        c,
        queries,
        win,
        dir,
        setup_bytes,
        setup,
        plan,
        stats: (stats0, stats1),
        replay_ask: Some(Box::new(move |k| {
            format!("exists y. K ss(e{}, y)", k % (2 * n))
        })),
        replay_demo: Some(Box::new(|_| "K emp(x) & ~K person(x)".to_string())),
    })
}

/// The same registrar in-process with no commits: two readers over one
/// snapshot.
fn registrar_read(
    cfg: &Config,
    sizes: &Sizes,
    model: &Registrar,
    run_dir: &Path,
    epoch: Instant,
) -> Result<Ran<Registrar>, String> {
    let plan = model.setup();
    let (db, dir, setup) = set_up_reps(run_dir, &plan, sizes.registrar_setups)?;
    let setup_bytes = dir_bytes(&dir);
    let base = db.head_lsn();
    let queries = model.queries();
    let parsed: Vec<Formula> = queries
        .iter()
        .map(|q| formula(&q.text))
        .collect::<Result<_, _>>()?;
    let stats0 = db.stats();
    let mut lead = Collected::new(History::new(model, base));
    let mut tr = Tracer::new(cfg.trace, epoch, 0);
    if cfg.trace {
        // The first ask on the just-published snapshot, then again.
        let snap = db.snapshot();
        let q = &parsed[model.ask_ss(0)];
        for name in ["ask.cold", "ask.warm"] {
            let before = snap.prover().sat_calls();
            tr.span(name, 0, false, |_| snap.ask(q));
            let calls = snap.prover().sat_calls() - before;
            lead.reads.ask(calls, snap.prover().memo_len());
        }
    }
    lead.spans = tr.spans;
    let win = Window::new(sizes.warmup, cfg.seconds);
    let readers: Vec<Collected<Registrar>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let (db, queries, parsed) = (&db, &queries, &parsed);
                s.spawn(move || {
                    let mut c = Collected::new(History::new(model, base));
                    let mut tr = Tracer::new(cfg.trace, epoch, 1 + t);
                    let mut rng = Rng::new(cfg.seed, 10 + t);
                    let n = model.n;
                    // Within asks and within demos the two queries differ in
                    // cost several times over, so each mix is 3:1: a 1:1
                    // mix would put each median on the edge of two modes.
                    // The cheaper demo is the majority: the 64-row demo's cost
                    // swings between about 5 and 10 ms from call to call, so
                    // a median over it does not repeat from run to run.
                    let pick = || match rng.below(8) {
                        0..=2 => model.ask_ss(rng.below(2 * n)),
                        3 => model.ask_person(rng.below(2 * n)),
                        4 => model.demo_ss(),
                        _ => model.demo_emp_not_ss3(),
                    };
                    let mut reads = ReadTally::default();
                    reader_loop(
                        &mut c,
                        queries,
                        pick,
                        win,
                        &mut tr,
                        local_read(db, queries, parsed, &mut reads),
                    );
                    c.reads.absorb(reads);
                    c.spans = tr.spans;
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let stats1 = db.stats();
    db.shutdown().map_err(|e| e.to_string())?;
    let c = merge(lead, readers);
    Ok(Ran {
        c,
        queries,
        win,
        dir,
        setup_bytes,
        setup,
        plan,
        stats: (stats0, stats1),
        replay_ask: None,
        replay_demo: None,
    })
}

/// Transitive closure in-process: one thread toggles back-edges, the
/// other reads (`demo` on `closure_churn`, `ask` on `closure_ask`).
fn closure(
    cfg: &Config,
    sizes: &Sizes,
    model: &Closure,
    run_dir: &Path,
    epoch: Instant,
) -> Result<Ran<Closure>, String> {
    let asks = cfg.workload == Workload::ClosureAsk;
    // closure_ask: after each back-edge is retracted the writer waits, so
    // most asks see the plain chain (the cost of the first ask differs by
    // which back-edge is present), and each ask still starts on a
    // snapshot published after the previous ask began.
    let pause = if asks {
        sizes.ask_pause
    } else {
        Duration::ZERO
    };
    let plan = model.setup();
    let reps = if asks {
        sizes.closure_setups.1
    } else {
        sizes.closure_setups.0
    };
    let (db, dir, setup) = set_up_reps(run_dir, &plan, reps)?;
    let setup_bytes = dir_bytes(&dir);
    let base = db.head_lsn();
    let groups = asks.then(|| model.ask_queries());
    let queries = match &groups {
        Some(g) => g.queries.clone(),
        None => model.demo_queries(),
    };
    let parsed: Vec<Formula> = queries
        .iter()
        .map(|q| formula(&q.text))
        .collect::<Result<_, _>>()?;
    let stats0 = db.stats();
    let win = Window::new(sizes.warmup, cfg.seconds);
    let (w, r) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut c = Collected::new(History::new(model, base));
            let mut tr = Tracer::new(cfg.trace, epoch, 1);
            writer_loop(
                model,
                &mut c,
                model.writes(cfg.seed),
                win,
                &mut tr,
                pause,
                local_commit(&db),
            );
            c.spans = tr.spans;
            c
        });
        let reader = s.spawn(|| {
            let mut c: Collected<Closure> = Collected::new(History::new(model, base));
            let mut tr = Tracer::new(cfg.trace, epoch, 2);
            let mut rng = Rng::new(cfg.seed, 2);
            let len = queries.len();
            // closure_ask: a third each of pairs that are always yes,
            // always no, and yes only under some back-edges.
            let pick = || match &groups {
                Some(g) => {
                    let group = [&g.yes, &g.no, &g.depends][rng.below(3)];
                    group.start + rng.below(group.len())
                }
                None => rng.below(len),
            };
            let mut reads = ReadTally::default();
            reader_loop(
                &mut c,
                &queries,
                pick,
                win,
                &mut tr,
                local_read(&db, &queries, &parsed, &mut reads),
            );
            c.reads.absorb(reads);
            c.spans = tr.spans;
            c
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let stats1 = db.stats();
    db.shutdown().map_err(|e| e.to_string())?;
    let c = merge(w, vec![r]);
    let nodes = model.edges + 1;
    let ask_texts: Vec<String> = if asks {
        queries.iter().map(|q| q.text.clone()).collect()
    } else {
        Vec::new()
    };
    Ok(Ran {
        c,
        queries,
        win,
        dir,
        setup_bytes,
        setup,
        plan,
        stats: (stats0, stats1),
        replay_ask: asks.then(|| -> Box<dyn Fn(usize) -> String> {
            Box::new(move |k| ask_texts[k % ask_texts.len()].clone())
        }),
        replay_demo: Some(Box::new(move |k| format!("K t(n{}, x)", k % nodes))),
    })
}

/// Fold the readers' results into the writer's (whose history is the
/// oracle's).
fn merge<M: Model>(mut w: Collected<M>, readers: Vec<Collected<M>>) -> Collected<M> {
    for r in readers {
        w.recs.extend(r.recs);
        w.lat.absorb(r.lat);
        w.tally.absorb(r.tally);
        w.reads.absorb(r.reads);
        w.spans.extend(r.spans);
    }
    w
}

// ----- gate, metrics, and the traced extras -----------------------------------

fn finish<M: Model>(
    cfg: &Config,
    model: &M,
    mut ran: Ran<M>,
    run_dir: &Path,
    epoch: Instant,
) -> Result<Report, String> {
    let c = &mut ran.c;
    verify_reads(model, c, &ran.queries, cfg.corrupt_oracle);
    let bytes = dir_bytes(&ran.dir).saturating_sub(ran.setup_bytes);
    let recover_s = recovery_gate(model, c, &ran.dir, ran.plan.constraints.len());

    let lat = &c.lat;
    let mut e2e = Metrics::default();
    e2e.latency("commit_assert_p50_ms", "commit_assert_tail_ms", &lat.assert);
    e2e.latency(
        "commit_retract_p50_ms",
        "commit_retract_tail_ms",
        &lat.retract,
    );
    e2e.latency("ask_p50_ms", "ask_tail_ms", &lat.ask);
    e2e.latency("demo_p50_ms", "demo_tail_ms", &lat.demo);
    e2e.put(
        "reads_per_s",
        Lat::rate(lat.reads, ran.win.start, lat.reads_end),
        "1/s",
    );
    // closure_ask's writer sleeps after each retraction, so its commit
    // rate would measure the benchmark's own pause, not the program.
    if cfg.workload != Workload::ClosureAsk {
        e2e.put(
            "commits_per_s",
            Lat::rate(lat.commits, ran.win.start, lat.commits_end),
            "1/s",
        );
    }
    e2e.put(
        "log_bytes_per_commit",
        (lat.acked_total > 0).then(|| bytes as f64 / lat.acked_total as f64),
        "bytes",
    );
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    e2e.put_noted(
        "setup_s",
        median(&ran.setup),
        "s",
        format!("(median of {} set-ups)", ran.setup.len()),
    );
    let mut lines = Vec::new();

    let mut layer = Metrics::default();
    let mut spans = std::mem::take(&mut c.spans);
    if cfg.trace {
        let scratch = run_dir.join("replay");
        std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
        let mut tr = Tracer::new(true, epoch, 9);
        let budget = Duration::from_secs_f64((cfg.seconds / 2.0).max(0.5));
        let rp = replay(&ran, &scratch, budget, &mut tr)?;
        for f in rp.failures.iter() {
            ran.c.tally.fail(format!("shadow replay: {f}"));
        }
        spans.extend(tr.spans);
        per_layer(&mut layer, &ran, &spans, &rp, recover_s);
        lines.extend(where_time_goes(cfg, &ran, &spans, &rp, &e2e));
    }
    if cfg.workload.in_manifest() {
        let (listed, got) = if cfg.trace {
            (&LAYERS[..], &layer)
        } else {
            (&GATED[..], &e2e)
        };
        for name in listed {
            if got.get(name).is_none() {
                ran.c.tally.fail(format!("metric {name} was not measured"));
            }
        }
    }
    let c = &ran.c;
    Ok(Report {
        attempted: c.tally.attempted,
        failed: c.tally.failed,
        failures: c.tally.failures.clone(),
        e2e,
        layer,
        lines,
        spans,
    })
}

/// What the shadow replay counted.
#[derive(Default)]
struct Replayed {
    /// Op index of each replayed write and whether it was accepted.
    writes: Vec<(usize, bool)>,
    datalog: EvalStats,
    evals: u64,
    checks: CheckStats,
    commits: u64,
    model_tuples: u64,
    memo_at_publish: u64,
    reads: ReadTally,
    failures: Vec<String>,
}

/// Run the write stream again through the writer-side layers' public
/// functions on a private `EpistemicDb`, off the serving path: the
/// Datalog fixpoint and the incremental constraint check (each re-run
/// on its own, cold), then `Transaction::prepare`, `Wal::append` on a
/// scratch log, `PreparedCommit::commit`, `Wal::sync`, the publish
/// clone, and a cold and a warm read of the published copy.
fn replay<M: Model>(
    ran: &Ran<M>,
    scratch: &Path,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<Replayed, String> {
    let mut db = EpistemicDb::from_text(&ran.plan.theory).map_err(|e| e.to_string())?;
    for ic in &ran.plan.constraints {
        db.add_constraint(formula(ic)?).map_err(|e| e.to_string())?;
    }
    for op in &ran.plan.writes {
        let mut txn = db.transaction();
        for a in &op.asserts {
            txn = txn.assert(formula(a)?);
        }
        let _ = txn.commit().map_err(|e| e.to_string())?;
    }
    let prog = definite_program(db.theory()).ok_or("theory is not a definite program")?;
    let plans: Vec<RulePlan> = prog
        .rules
        .iter()
        .map(|r| RulePlan::compile_with_stats(r, db.prover().atom_model()))
        .collect();
    let checker = IncrementalChecker::new(db.constraints()).map_err(|e| e.0)?;
    let graph = RuleGraph::new(db.theory());
    let mut wal =
        Wal::create(scratch.join(WAL_FILE), FsyncPolicy::Never).map_err(|e| e.to_string())?;
    let mut out = Replayed::default();
    let t0 = Instant::now();
    for (k, op) in ran.c.ops.iter().enumerate() {
        if k >= 2 && t0.elapsed() > budget {
            break;
        }
        let req = k as u64;
        let asserts: Vec<Formula> = op
            .asserts
            .iter()
            .map(|s| formula(s))
            .collect::<Result<_, _>>()?;
        let retracts: Vec<Formula> = op
            .retracts
            .iter()
            .map(|s| formula(s))
            .collect::<Result<_, _>>()?;
        let accepted = tr.span("replay.write", req, true, |tr| -> Result<bool, String> {
            // The model maintenance and the check, each on its own.
            let mut cand = db.theory().clone();
            for r in &retracts {
                cand.retract(r);
            }
            for a in &asserts {
                cand.assert(a.clone()).map_err(|e| e.to_string())?;
            }
            let (Some(old), Some(cprog)) = (db.prover().atom_model(), definite_program(&cand))
            else {
                return Err("candidate is not a definite program".into());
            };
            let atoms = |fs: &[Formula]| {
                let mut d = Database::new();
                for f in fs {
                    if let Formula::Atom(a) = f {
                        d.insert(a);
                    }
                }
                d
            };
            let (added, removed) = (atoms(&asserts), atoms(&retracts));
            let start = old.clone();
            let (model, stats) = tr
                .span("datalog.eval", req, true, |_| {
                    if removed.is_empty() {
                        cprog.eval_incremental_with(&plans, start, &added)
                    } else {
                        cprog.eval_decremental_with(&plans, start, &removed)
                    }
                })
                .map_err(|e| e.to_string())?;
            out.datalog.absorb(&stats);
            out.evals += 1;
            let gone: Vec<_> = old.difference(&model).atoms().collect();
            let facts: Vec<_> = asserts
                .iter()
                .filter_map(|f| match f {
                    Formula::Atom(a) => Some(a),
                    _ => None,
                })
                .collect();
            let prover = db.prover().updated(cand, Some(model));
            let mut scratch_checks = CheckStats::default();
            tr.span("check", req, true, |_| {
                checker.check_batch_with_removals(
                    &prover,
                    &facts,
                    &gone,
                    &graph,
                    &mut scratch_checks,
                )
            });
            drop(prover);

            // The writer's own path.
            let mut txn = db.transaction();
            for r in &retracts {
                txn = txn.retract(r.clone());
            }
            for a in &asserts {
                txn = txn.assert(a.clone());
            }
            let Ok(prepared) = tr.span("txn.prepare", req, true, |_| txn.prepare()) else {
                return Ok(false);
            };
            let mut wal_ops: Vec<WalOp> = prepared
                .removed()
                .iter()
                .cloned()
                .map(WalOp::Retract)
                .collect();
            wal_ops.extend(prepared.added().iter().cloned().map(WalOp::Assert));
            tr.span("wal.append", req, true, |_| wal.append(&wal_ops))
                .map_err(|e| e.to_string())?;
            let report = tr.span("txn.apply", req, true, |_| prepared.commit());
            out.checks.skipped += report.checks.skipped;
            out.checks.specialized += report.checks.specialized;
            out.checks.full += report.checks.full;
            out.commits += 1;
            tr.span("wal.sync", req, true, |_| wal.sync())
                .map_err(|e| e.to_string())?;
            let published = tr.span("mvcc.publish_clone", req, true, |_| db.clone());
            out.model_tuples += published.prover().atom_model().map_or(0, Database::len) as u64;
            out.memo_at_publish += published.prover().memo_len() as u64;
            if let Some(q) = &ran.replay_ask {
                let q = formula(&q(k))?;
                for name in ["ask.cold", "ask.warm"] {
                    let before = published.prover().sat_calls();
                    tr.span(name, req, true, |_| published.ask(&q));
                    let calls = published.prover().sat_calls() - before;
                    out.reads.ask(calls, published.prover().memo_len());
                }
            }
            if let Some(q) = &ran.replay_demo {
                let q = formula(&q(k))?;
                let rows = tr
                    .span("demo", req, true, |_| published.demo_all(&q))
                    .map_err(|e| e.to_string())?;
                out.reads.demos += 1;
                out.reads.demo_rows += rows.len() as u64;
            }
            Ok(true)
        })?;
        if accepted == op.expect_reject {
            out.failures.push(format!(
                "write {k} {op:?}: replay {} it",
                if accepted { "accepted" } else { "rejected" }
            ));
        }
        out.writes.push((k, accepted));
    }
    Ok(out)
}

fn span_mean_ms(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Option<f64> {
    let xs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    mean(&xs)
}

fn per_commit(total: u64, commits: u64) -> Option<f64> {
    (commits > 0).then(|| total as f64 / commits as f64)
}

fn per_layer<M: Model>(
    layer: &mut Metrics,
    ran: &Ran<M>,
    spans: &[Span],
    rp: &Replayed,
    recover_s: Option<f64>,
) {
    let any = |_: &Span| true;
    let m = |name| span_mean_ms(spans, name, any);
    let us = |name| m(name).map(|v| v * 1e3);
    let noop: Vec<f64> = crate::trace::durations_ms(spans, "server.noop");
    layer.put("server.noop_rtt_ms", median(&noop), "ms");
    layer.put("serve.commit_wait_ms", m("serve.commit_wait"), "ms");
    layer.put("serve.snapshot_us", us("serve.snapshot"), "us");
    let (s0, s1) = ran.stats;
    let (commits, batches, fsyncs) = (
        s1.commits - s0.commits,
        s1.batches - s0.batches,
        s1.fsyncs - s0.fsyncs,
    );
    layer.put(
        "serve.commits_per_batch",
        per_commit(commits, batches),
        "count",
    );
    layer.put(
        "serve.fsyncs_per_commit",
        (commits > 0).then(|| fsyncs as f64 / commits as f64),
        "count",
    );
    layer.put(
        "serve.rejected",
        Some((s1.rejected - s0.rejected) as f64),
        "count",
    );
    layer.put("wal.append_us", us("wal.append"), "us");
    layer.put("wal.sync_us", us("wal.sync"), "us");
    layer.put("durable.recover_s", recover_s, "s");
    layer.put("txn.prepare_ms", m("txn.prepare"), "ms");
    layer.put("txn.apply_us", us("txn.apply"), "us");
    layer.put("check.ms", m("check"), "ms");
    let c = rp.commits;
    layer.put(
        "check.specialized",
        per_commit(rp.checks.specialized, c),
        "count",
    );
    layer.put("check.full", per_commit(rp.checks.full, c), "count");
    layer.put("check.skipped", per_commit(rp.checks.skipped, c), "count");
    layer.put("datalog.eval_ms", m("datalog.eval"), "ms");
    let d = &rp.datalog;
    let e = rp.evals;
    layer.put(
        "datalog.rule_firings",
        per_commit(d.rule_firings, e),
        "count",
    );
    layer.put(
        "datalog.rows_examined",
        per_commit(d.rows_examined, e),
        "count",
    );
    layer.put(
        "datalog.tuples_overdeleted",
        per_commit(d.tuples_overdeleted, e),
        "count",
    );
    layer.put(
        "datalog.tuples_rederived",
        per_commit(d.tuples_rederived, e),
        "count",
    );
    layer.put(
        "datalog.support_checks",
        per_commit(d.support_checks, e),
        "count",
    );
    layer.put("mvcc.publish_clone_ms", m("mvcc.publish_clone"), "ms");
    layer.put("mvcc.model_tuples", per_commit(rp.model_tuples, c), "count");
    layer.put("ask.cold_ms", m("ask.cold"), "ms");
    layer.put("ask.warm_ms", m("ask.warm"), "ms");
    layer.put("demo.ms", m("demo"), "ms");
    // Reads on the served snapshots where the workload makes them
    // in-process; otherwise (over the wire the server's snapshots are out
    // of reach) the replay's reads of the published copies stand in.
    let served = &ran.c.reads;
    let demos = if served.demos > 0 { served } else { &rp.reads };
    layer.put(
        "demo.rows",
        per_commit(demos.demo_rows, demos.demos),
        "count",
    );
    let reads = if served.asks > 0 { served } else { &rp.reads };
    layer.put(
        "prover.sat_calls_per_ask",
        per_commit(reads.sat_calls, reads.asks),
        "count",
    );
    layer.put(
        "prover.sat_free_ask_ratio",
        (reads.asks > 0).then(|| reads.sat_free as f64 / reads.asks as f64),
        "ratio",
    );
    layer.put(
        "prover.memo_entries",
        per_commit(reads.memo_entries, reads.asks),
        "count",
    );
}

/// The traced run's account of where time goes: each layer's self time,
/// the hire/fire split of the replayed writer path, and the rows of the
/// baseline table this benchmark re-measures.
fn where_time_goes<M: Model>(
    cfg: &Config,
    ran: &Ran<M>,
    spans: &[Span],
    rp: &Replayed,
    e2e: &Metrics,
) -> Vec<String> {
    let mut out = vec!["self time per layer (served path, then shadow replay):".to_string()];
    for (replay, label) in [(false, "served"), (true, "replay")] {
        for (name, t) in layer_times(spans, Some(replay)) {
            out.push(format!(
                "  {label:6} {name:20} calls {:7}  total {:10.3} ms  self {:10.3} ms  mean {:9.4} ms",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.mean_ms()
            ));
        }
    }
    let kind = |want_assert: bool| {
        let ops = &ran.c.ops;
        let set: std::collections::BTreeSet<u64> = rp
            .writes
            .iter()
            .filter(|&&(k, ok)| ok && ops[k].is_assert() == want_assert)
            .map(|&(k, _)| k as u64)
            .collect();
        move |s: &Span| s.replay && set.contains(&s.request)
    };
    // (row, claimed, claimed value, unit, measured)
    let mut rows: Vec<(&str, &str, f64, &str, Option<f64>)> = Vec::new();
    const WRITER_PATH: [&str; 5] = [
        "txn.prepare",
        "wal.append",
        "txn.apply",
        "wal.sync",
        "mvcc.publish_clone",
    ];
    let mut hire = None;
    for (label, want_assert) in [
        ("assert (hire / back-edge)", true),
        ("retract (fire / back-edge)", false),
    ] {
        let keep = kind(want_assert);
        let prep = span_mean_ms(spans, "txn.prepare", &keep);
        let check = span_mean_ms(spans, "check", &keep);
        let eval = span_mean_ms(spans, "datalog.eval", &keep);
        let apply = span_mean_ms(spans, "txn.apply", &keep);
        if let (Some(p), Some(ch), Some(ev), Some(ap)) = (prep, check, eval, apply) {
            out.push(format!(
                "replayed {label}: prepare {p:.3} ms, of which check {ch:.3} ms ({:.0}%) and datalog {ev:.3} ms ({:.0}%); apply {:.1} us",
                100.0 * ch / p,
                100.0 * ev / p,
                ap * 1e3
            ));
            if want_assert {
                let path: Option<f64> = WRITER_PATH
                    .into_iter()
                    .map(|name| span_mean_ms(spans, name, &keep))
                    .sum();
                hire = Some((p, ch, ap, path));
            }
        }
    }
    let replayed = |name| span_mean_ms(spans, name, |s| s.replay);
    let writer_path: Option<f64> = WRITER_PATH.into_iter().map(replayed).sum();
    if let (Some(cw), Some(path)) = (
        span_mean_ms(spans, "serve.commit_wait", |s| !s.replay),
        writer_path,
    ) {
        let (eval, clone) = (
            replayed("datalog.eval").unwrap_or(0.0),
            replayed("mvcc.publish_clone").unwrap_or(0.0),
        );
        out.push(format!(
            "served commit_wait mean {cw:.3} ms; replayed writer path (prepare, append, apply, sync, publish clone) {path:.3} ms = {:.0}% of it; datalog.eval + publish clone {:.3} ms = {:.0}% of it",
            100.0 * path / cw,
            eval + clone,
            100.0 * (eval + clone) / cw
        ));
    }
    if let (Some(noop), Some(ask)) = (
        median(&crate::trace::durations_ms(spans, "server.noop")),
        median(&ran.c.lat.ask),
    ) {
        out.push(format!(
            "server no-op round trip {noop:.3} ms = {:.0}% of ask p50 {ask:.3} ms in this traced run",
            100.0 * noop / ask
        ));
    }
    rows.push((
        "in-memory hire, end to end (prepare + apply)",
        "~162 ms",
        162.0,
        "ms",
        hire.map(|(p, _, a, _)| p + a),
    ));
    rows.push((
        "hire: constraint check share of prepare",
        "~97 of 98 ms",
        99.0,
        "%",
        hire.map(|(p, c, _, _)| 100.0 * c / p),
    ));
    rows.push((
        "ServingDb hire, commit_wait (replayed writer path)",
        "~111 ms",
        111.0,
        "ms",
        hire.and_then(|h| h.3),
    ));
    rows.push((
        "EpistemicDb::clone = per-batch publish",
        "1.8 s",
        1800.0,
        "ms",
        replayed("mvcc.publish_clone"),
    ));
    rows.push((
        "... Prover memo entries cloned per publish",
        "17,163",
        17163.0,
        "entries",
        per_commit(rp.memo_at_publish, rp.commits),
    ));
    rows.push((
        "snapshot ask (warm)",
        "414 us",
        0.414,
        "ms",
        span_mean_ms(spans, "ask.warm", |_| true),
    ));
    rows.push((
        "registrar set-up by enrollment commits (setup_s)",
        "2.65 s",
        2.65,
        "s",
        e2e.get("setup_s"),
    ));
    rows.push((
        "registrar_db(64): all facts, then add_constraint in full",
        "28 s",
        28.0,
        "s",
        None,
    ));
    let registrar = matches!(
        cfg.workload,
        Workload::RegistrarMixed | Workload::RegistrarRead
    );
    if registrar && !cfg.smoke {
        out.push("baseline rows at n=64 (ROADMAP \"Baseline measured at this re-anchor\", plus the enrollment set-up):".into());
        for (row, claimed, want, unit, got) in rows {
            let verdict = match got {
                None => "not measured by this workload's run".to_string(),
                Some(v) if v >= want / 2.0 && v <= want * 2.0 => {
                    format!("measured {v:.3} {unit} -> reproduces")
                }
                Some(v) => format!("measured {v:.3} {unit} -> DOES NOT REPRODUCE"),
            };
            out.push(format!("  {row}: claimed {claimed}, {verdict}"));
        }
    }
    out
}
