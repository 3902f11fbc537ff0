//! Seeded operation streams and the oracle that says what every answer
//! must be.
//!
//! The benchmark never asks the database what its state is: each
//! workload's state at a log sequence number (LSN) follows from the
//! seeded write stream alone, and [`Registrar`] and [`Closure`] compute
//! every expected answer from that state with plain set and graph code
//! that shares nothing with the engine.

use std::collections::{BTreeSet, HashMap};

/// The seed used while developing the benchmark and any change measured
/// with it.
pub const DEV_SEED: u64 = 1;
/// The seed kept back for confirming a claimed gain on inputs the change
/// was not tuned on.
pub const HELD_OUT_SEED: u64 = 917_401;

/// SplitMix64: a small, fast, fully deterministic generator. One
/// independent stream per `(seed, stream)` pair, so each thread of a
/// workload draws its own sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One write of a workload's commit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    pub asserts: Vec<String>,
    pub retracts: Vec<String>,
    /// Whether the database must refuse it.
    pub expect_reject: bool,
}

impl WriteOp {
    pub fn is_assert(&self) -> bool {
        !self.asserts.is_empty()
    }
}

/// What a read returned, reduced to what the oracle can predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Answer {
    Verdict(Verdict),
    /// Row count and an order-independent digest of the rows.
    Rows(usize, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    Yes,
    No,
    Unknown,
}

impl Verdict {
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "yes" => Some(Verdict::Yes),
            "no" => Some(Verdict::No),
            "unknown" => Some(Verdict::Unknown),
            _ => None,
        }
    }

    fn of(b: bool) -> Verdict {
        if b {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }
}

/// FNV-1a over one row's space-joined parameter names.
fn row_hash(row: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (i, p) in row.iter().enumerate() {
        if i > 0 {
            h = (h ^ u64::from(b' ')).wrapping_mul(0x0100_0000_01B3);
        }
        for b in p.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Row count plus the wrapping sum of row hashes: equal for equal row
/// sets whatever order the engine returned them in.
pub fn rows_answer(rows: &[Vec<String>]) -> Answer {
    let digest = rows
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)));
    Answer::Rows(rows.len(), digest)
}

/// A read query: whether it is an `ask` or a `demo`, and its sentence.
#[derive(Debug, Clone)]
pub struct Query {
    pub demo: bool,
    pub text: String,
}

/// The workload-specific half of the oracle: the initial theory, the
/// write stream's effect on state, and the answer to every query.
pub trait Model {
    type State: Clone;
    fn initial(&self) -> Self::State;
    /// Apply an accepted write.
    fn apply(&self, state: &mut Self::State, op: &WriteOp);
    fn answer(&self, state: &Self::State, query: &Query) -> Answer;
    /// The theory's sentences in this state, as text.
    fn sentences(&self, state: &Self::State) -> Vec<String>;
}

/// The database's state after each accepted write, indexed by LSN, plus
/// a cache of expected answers.
pub struct History<M: Model> {
    base_lsn: u64,
    states: Vec<M::State>,
    cache: HashMap<(u64, usize), Answer>,
}

impl<M: Model> History<M> {
    pub fn new(model: &M, base_lsn: u64) -> History<M> {
        History {
            base_lsn,
            states: vec![model.initial()],
            cache: HashMap::new(),
        }
    }

    /// Record an accepted write; returns the LSN it must get.
    pub fn push(&mut self, model: &M, op: &WriteOp) -> u64 {
        let mut next = self.states.last().expect("initial state").clone();
        model.apply(&mut next, op);
        self.states.push(next);
        self.head_lsn()
    }

    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    pub fn head_lsn(&self) -> u64 {
        self.base_lsn + self.states.len() as u64 - 1
    }

    pub fn head(&self) -> &M::State {
        self.states.last().expect("initial state")
    }

    /// The expected answer to `queries[qid]` at `lsn`, or `None` when no
    /// accepted write produced that LSN.
    pub fn expect(&mut self, model: &M, queries: &[Query], qid: usize, lsn: u64) -> Option<Answer> {
        let idx = lsn.checked_sub(self.base_lsn)? as usize;
        let state = self.states.get(idx)?;
        Some(
            *self
                .cache
                .entry((lsn, qid))
                .or_insert_with(|| model.answer(state, &queries[qid])),
        )
    }
}

// ----- the registrar -------------------------------------------------------

pub const IC_KNOWN_NUMBER: &str = "forall x. K emp(x) -> exists y. K ss(x, y)";
pub const IC_UNIQUE_NUMBER: &str = "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z";
const EMP_RULE: &str = "forall x. emp(x) -> person(x)";

/// The §3 registrar: employees `e0 .. e{n-1}`, each with `emp` and a
/// social-security number `ss(ei, ni)`, the rule `emp ⊃ person`, and the
/// two epistemic constraints (every known employee has a known number;
/// numbers are unique).
pub struct Registrar {
    pub n: usize,
    /// How many ids `registrar_mixed` hires and fires in turn.
    pub pool: usize,
}

/// How a workload's database is built before the measured window:
/// the initial theory, then the constraints, then the initial writes,
/// each through the serving layer's public calls.
pub struct Setup {
    pub theory: String,
    pub constraints: Vec<&'static str>,
    pub writes: Vec<WriteOp>,
}

impl Registrar {
    /// The rule and both constraints on an empty registrar, then one
    /// enrollment commit per employee: the order the served registrar is
    /// built in, where each constraint check covers one new employee.
    pub fn setup(&self) -> Setup {
        Setup {
            theory: EMP_RULE.to_string(),
            constraints: vec![IC_KNOWN_NUMBER, IC_UNIQUE_NUMBER],
            writes: (0..self.n)
                .map(|i| WriteOp {
                    asserts: vec![format!("emp(e{i})"), format!("ss(e{i}, n{i})")],
                    retracts: vec![],
                    expect_reject: false,
                })
                .collect(),
        }
    }

    /// The ids `registrar_mixed` hires and fires: `n .. n + pool`, inside
    /// the `0..2n` range the readers ask about, so an answer about one of
    /// them depends on the write stream.
    pub fn hire_pool(&self) -> std::ops::Range<usize> {
        self.n..self.n + self.pool
    }

    /// The hire/fire stream of `registrar_mixed`: hire `k` takes id
    /// `n + k mod pool`, each accepted hire is followed by the matching fire,
    /// so every hire is of an employee not on file. Every eighth hire
    /// omits the `ss` fact and must be rejected by the known-number
    /// constraint; it has no fire. The seed only picks the order of the
    /// two sentences inside each transaction.
    pub fn writes(&self, seed: u64) -> impl Iterator<Item = WriteOp> {
        let pool = self.hire_pool();
        let mut rng = Rng::new(seed, 0x5752);
        let mut hires = 0usize;
        let mut pending: Option<usize> = None;
        std::iter::from_fn(move || {
            if let Some(id) = pending.take() {
                let mut retracts = vec![format!("emp(e{id})"), format!("ss(e{id}, n{id})")];
                if rng.below(2) == 1 {
                    retracts.swap(0, 1);
                }
                return Some(WriteOp {
                    asserts: vec![],
                    retracts,
                    expect_reject: false,
                });
            }
            let k = hires;
            hires += 1;
            let id = pool.start + k % pool.len();
            let with_ss = k % 8 != 7;
            let mut asserts = vec![format!("emp(e{id})")];
            if with_ss {
                asserts.push(format!("ss(e{id}, n{id})"));
                if rng.below(2) == 1 {
                    asserts.swap(0, 1);
                }
                pending = Some(id);
            }
            Some(WriteOp {
                asserts,
                retracts: vec![],
                expect_reject: !with_ss,
            })
        })
    }

    /// `ask ∃y K ss(e_i, y)` for `i` in `0..2n` (half yes, half no), then
    /// the `demo` queries of both registrar workloads.
    pub fn queries(&self) -> Vec<Query> {
        let mut q = Vec::new();
        for i in 0..2 * self.n {
            q.push(Query {
                demo: false,
                text: format!("exists y. K ss(e{i}, y)"),
            });
        }
        for i in 0..2 * self.n {
            q.push(Query {
                demo: false,
                text: format!("K person(e{i})"),
            });
        }
        for text in [
            "K emp(x) & ~K person(x)",
            "K ss(x, y)",
            "K emp(x) & ~K ss(x, n3)",
        ] {
            q.push(Query {
                demo: true,
                text: text.into(),
            });
        }
        q
    }

    pub fn ask_ss(&self, i: usize) -> usize {
        i
    }
    pub fn ask_person(&self, i: usize) -> usize {
        2 * self.n + i
    }
    pub fn demo_emp_not_person(&self) -> usize {
        4 * self.n
    }
    pub fn demo_ss(&self) -> usize {
        4 * self.n + 1
    }
    pub fn demo_emp_not_ss3(&self) -> usize {
        4 * self.n + 2
    }
}

fn employee(fact: &str) -> usize {
    let start = fact.find("(e").expect("employee fact") + 2;
    let end = fact[start..]
        .find([',', ')'])
        .map(|e| start + e)
        .expect("closed fact");
    fact[start..end].parse().expect("numeric employee id")
}

impl Model for Registrar {
    /// Employees on file (each with `emp` and `ss(ei, ni)`).
    type State = BTreeSet<usize>;

    fn initial(&self) -> BTreeSet<usize> {
        (0..self.n).collect()
    }

    fn apply(&self, state: &mut BTreeSet<usize>, op: &WriteOp) {
        for a in &op.asserts {
            state.insert(employee(a));
        }
        for r in &op.retracts {
            state.remove(&employee(r));
        }
    }

    fn answer(&self, state: &BTreeSet<usize>, query: &Query) -> Answer {
        let text = query.text.as_str();
        if let Some(rest) = text.strip_prefix("exists y. K ss(e") {
            let i: usize = rest.trim_end_matches(", y)").parse().expect("id");
            return Answer::Verdict(Verdict::of(state.contains(&i)));
        }
        if let Some(rest) = text.strip_prefix("K person(e") {
            let i: usize = rest.trim_end_matches(')').parse().expect("id");
            return Answer::Verdict(Verdict::of(state.contains(&i)));
        }
        let rows: Vec<Vec<String>> = match text {
            "K emp(x) & ~K person(x)" => vec![],
            "K ss(x, y)" => state
                .iter()
                .map(|i| vec![format!("e{i}"), format!("n{i}")])
                .collect(),
            "K emp(x) & ~K ss(x, n3)" => state
                .iter()
                .filter(|&&i| i != 3)
                .map(|i| vec![format!("e{i}")])
                .collect(),
            other => panic!("no oracle for registrar query {other:?}"),
        };
        rows_answer(&rows)
    }

    fn sentences(&self, state: &BTreeSet<usize>) -> Vec<String> {
        let mut s = vec![EMP_RULE.to_string()];
        for i in state {
            s.push(format!("emp(e{i})"));
            s.push(format!("ss(e{i}, n{i})"));
        }
        s
    }
}

// ----- transitive closure --------------------------------------------------

const CLOSURE_RULES: [&str; 2] = [
    "forall x, y. e(x, y) -> t(x, y)",
    "forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
];

/// Transitive closure over the chain `e(n_j, n_{j+1})`, `j < edges`,
/// toggled by back-edges `e(n_j, n_{j-span})`. At most one back-edge is
/// present at a time.
pub struct Closure {
    pub edges: usize,
    pub span: usize,
}

impl Closure {
    /// Both rules in the initial theory, then one commit per chain edge,
    /// in chain order: the closure is built the way it is served, as the
    /// registrar is.
    pub fn setup(&self) -> Setup {
        Setup {
            theory: CLOSURE_RULES.join("\n"),
            constraints: vec![],
            writes: (0..self.edges)
                .map(|j| WriteOp {
                    asserts: vec![self.chain_edge(j)],
                    retracts: vec![],
                    expect_reject: false,
                })
                .collect(),
        }
    }

    fn chain_edge(&self, j: usize) -> String {
        format!("e(n{j}, n{})", j + 1)
    }

    fn back_edge(&self, j: usize) -> String {
        format!("e(n{j}, n{})", j - self.span)
    }

    /// Assert a seeded back-edge, then retract it; repeat.
    pub fn writes(&self, seed: u64) -> impl Iterator<Item = WriteOp> {
        let mut rng = Rng::new(seed, 0x5457);
        let (span, edges) = (self.span, self.edges);
        let mut pending: Option<String> = None;
        let this = Closure { edges, span };
        std::iter::from_fn(move || {
            Some(match pending.take() {
                Some(edge) => WriteOp {
                    asserts: vec![],
                    retracts: vec![edge],
                    expect_reject: false,
                },
                None => {
                    let edge = this.back_edge(span + rng.below(edges - span + 1));
                    pending = Some(edge.clone());
                    WriteOp {
                        asserts: vec![edge],
                        retracts: vec![],
                        expect_reject: false,
                    }
                }
            })
        })
    }

    /// `demo K t(n_i, x)` and `demo K t(x, n_i)` for every node.
    pub fn demo_queries(&self) -> Vec<Query> {
        let mut q = Vec::new();
        for i in 0..=self.edges {
            q.push(Query {
                demo: true,
                text: format!("K t(n{i}, x)"),
            });
            q.push(Query {
                demo: true,
                text: format!("K t(x, n{i})"),
            });
        }
        q
    }

    /// `ask K t(n_i, n_j)` in three groups: every forward pair (`i < j`,
    /// always yes); every pair reaching further back than one back-edge
    /// can (`j < i - span`, always no); and every pair reaching back at
    /// most `span` (`i - span <= j < i`), yes exactly when the present
    /// back-edge closes a cycle over both nodes.
    pub fn ask_queries(&self) -> AskSet {
        let ask = |i: usize, j: usize| Query {
            demo: false,
            text: format!("K t(n{i}, n{j})"),
        };
        let mut queries = Vec::new();
        for i in 0..self.edges {
            queries.extend((i + 1..=self.edges).map(|j| ask(i, j)));
        }
        let yes = queries.len();
        for i in self.span + 1..=self.edges {
            queries.extend((0..i - self.span).map(|j| ask(i, j)));
        }
        let no = queries.len();
        for i in 1..=self.edges {
            queries.extend((i.saturating_sub(self.span)..i).map(|j| ask(i, j)));
        }
        AskSet {
            yes: 0..yes,
            no: yes..no,
            depends: no..queries.len(),
            queries,
        }
    }

    /// Nodes reachable from `from` over one or more edges.
    fn reach(&self, back: Option<usize>, from: usize, forward: bool) -> BTreeSet<usize> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.edges + 1];
        let mut add = |a: usize, b: usize| {
            if forward {
                adj[a].push(b)
            } else {
                adj[b].push(a)
            }
        };
        for j in 0..self.edges {
            add(j, j + 1);
        }
        if let Some(j) = back {
            add(j, j - self.span);
        }
        let mut seen = BTreeSet::new();
        let mut stack = adj[from].clone();
        while let Some(v) = stack.pop() {
            if seen.insert(v) {
                stack.extend(adj[v].iter().copied());
            }
        }
        seen
    }
}

/// `closure_ask`'s queries, cut into the three groups the reader draws
/// from in equal shares.
pub struct AskSet {
    pub queries: Vec<Query>,
    pub yes: std::ops::Range<usize>,
    pub no: std::ops::Range<usize>,
    pub depends: std::ops::Range<usize>,
}

fn node_pair(text: &str) -> (&str, &str) {
    let inner = &text[text.find('(').expect("atom") + 1..text.len() - 1];
    let (a, b) = inner.split_once(", ").expect("binary atom");
    (a, b)
}

fn node(p: &str) -> usize {
    p.trim_start_matches('n').parse().expect("node id")
}

impl Model for Closure {
    /// The head of the present back-edge, if any.
    type State = Option<usize>;

    fn initial(&self) -> Option<usize> {
        None
    }

    fn apply(&self, state: &mut Option<usize>, op: &WriteOp) {
        if let Some(a) = op.asserts.first() {
            *state = Some(node(node_pair(a).0));
        } else {
            *state = None;
        }
    }

    fn answer(&self, state: &Option<usize>, query: &Query) -> Answer {
        let (a, b) = node_pair(&query.text);
        match (a, b) {
            ("x", to) => rows_answer(
                &self
                    .reach(*state, node(to), false)
                    .into_iter()
                    .map(|v| vec![format!("n{v}")])
                    .collect::<Vec<_>>(),
            ),
            (from, "x") => rows_answer(
                &self
                    .reach(*state, node(from), true)
                    .into_iter()
                    .map(|v| vec![format!("n{v}")])
                    .collect::<Vec<_>>(),
            ),
            (from, to) => Answer::Verdict(Verdict::of(
                self.reach(*state, node(from), true).contains(&node(to)),
            )),
        }
    }

    fn sentences(&self, state: &Option<usize>) -> Vec<String> {
        let mut s: Vec<String> = CLOSURE_RULES.iter().map(|r| r.to_string()).collect();
        s.extend((0..self.edges).map(|j| self.chain_edge(j)));
        if let Some(j) = state {
            s.push(self.back_edge(*j));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let r = Registrar { n: 4, pool: 2 };
        let a: Vec<_> = r.writes(3).take(20).collect();
        let b: Vec<_> = r.writes(3).take(20).collect();
        assert_eq!(a, b);
        let c = Closure { edges: 12, span: 4 };
        let a: Vec<_> = c.writes(3).take(20).collect();
        assert_eq!(a, c.writes(3).take(20).collect::<Vec<_>>());
        assert_ne!(a, c.writes(4).take(20).collect::<Vec<_>>());
    }

    #[test]
    fn every_eighth_hire_is_rejected_and_has_no_fire() {
        let r = Registrar { n: 4, pool: 2 };
        let ops: Vec<_> = r.writes(1).take(16).collect();
        let hires: Vec<_> = ops.iter().filter(|o| o.is_assert()).collect();
        assert!(hires[7].expect_reject && hires[7].asserts.len() == 1);
        assert_eq!(ops.iter().filter(|o| o.expect_reject).count(), 1);
        // Hires cycle over the pool, each of an employee not on file.
        let mut state = r.initial();
        for op in r.writes(1).take(200) {
            if op.is_assert() && !op.expect_reject {
                let id = employee(&op.asserts[0]);
                assert!(r.hire_pool().contains(&id) && !state.contains(&id));
            }
            if !op.expect_reject {
                r.apply(&mut state, &op);
            }
        }
    }

    #[test]
    fn closure_oracle_follows_the_back_edge() {
        let c = Closure { edges: 8, span: 4 };
        let q = |t: &str| Query {
            demo: false,
            text: t.into(),
        };
        let yes = Answer::Verdict(Verdict::Yes);
        let no = Answer::Verdict(Verdict::No);
        assert_eq!(c.answer(&None, &q("K t(n6, n2)")), no);
        assert_eq!(c.answer(&Some(6), &q("K t(n6, n2)")), yes);
        assert_eq!(c.answer(&Some(6), &q("K t(n3, n3)")), yes);
        let set = c.ask_queries();
        for back in [None, Some(4), Some(8)] {
            for i in set.yes.clone() {
                assert_eq!(c.answer(&back, &set.queries[i]), yes);
            }
            for i in set.no.clone() {
                assert_eq!(c.answer(&back, &set.queries[i]), no);
            }
        }
        // Each pair of the third group is no on the plain chain and yes
        // under some back-edge.
        for i in set.depends.clone() {
            let q = &set.queries[i];
            assert_eq!(c.answer(&None, q), no, "{}", q.text);
            assert!((4..=8).any(|j| c.answer(&Some(j), q) == yes), "{}", q.text);
        }
    }
}
