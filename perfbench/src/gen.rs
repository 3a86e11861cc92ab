//! Seeded workload generation. Everything the server receives is made
//! here as wire lines: the bulk load, the `PREPARE`s, and the request
//! stream of each round. The same seed gives the same lines.

/// A small seeded generator (splitmix64): deterministic across platforms
/// and independent of any crate the program under test uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
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

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - p
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One request of a stream.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub kind: Kind,
    /// The queries the reply answers, in reply order (indices into
    /// [`Workload::queries`]); empty for writes.
    pub queries: Vec<usize>,
    /// `COUNTERMODEL`: the reply is `CERTAIN` or a framed model block.
    pub witness: bool,
    /// Inline `ENTAIL`: the query is parsed and prepared per request.
    pub inline: bool,
}

impl Req {
    fn write(fragment: String) -> Req {
        Req {
            line: format!("FACT {fragment}"),
            kind: Kind::Write,
            queries: Vec::new(),
            witness: false,
            inline: false,
        }
    }

    /// The `FACT` payload of a write.
    pub fn fragment(&self) -> &str {
        self.line.strip_prefix("FACT ").unwrap_or("")
    }
}

/// A generated workload: database, prepared queries and the rounds'
/// streams.
pub struct Workload {
    pub name: &'static str,
    pub db: &'static str,
    /// `FACT` payloads of the bulk load, in order.
    pub load: Vec<String>,
    /// Every query text a request can ask, prepared or inline.
    pub queries: Vec<String>,
    /// `(name, query index)` of each `PREPARE`.
    pub prepared: Vec<(String, usize)>,
    /// The request stream of each round. A round is served on one
    /// connection by a fresh server on a fresh copy of the load, so
    /// every round starts from the same database and does the same work.
    pub rounds: Vec<Vec<Req>>,
}

impl Workload {
    /// The `PREPARE` lines, in order.
    pub fn prepare_lines(&self) -> Vec<String> {
        self.prepared
            .iter()
            .map(|(name, q)| format!("PREPARE {name}: {}", self.queries[*q]))
            .collect()
    }

    /// The request whose reply is the "first warm answer".
    pub fn probe(&self) -> String {
        format!("ENTAIL {}", self.prepared[0].0)
    }
}

pub const WORKLOADS: [&str; 3] = ["warm-mix", "append-events", "disjunctive-search"];

/// Sizes of one run: `requests` over all rounds (for `append-events`
/// the writes, for `disjunctive-search` the reads), split evenly over
/// `rounds`. `smoke` shrinks the database
/// and the queries.
pub struct Size {
    pub requests: usize,
    pub rounds: usize,
    pub smoke: bool,
}

impl Size {
    /// The share of `requests` of one round, in whole units of `unit`.
    fn per_round(&self, unit: usize) -> usize {
        self.requests.div_ceil(self.rounds * unit).max(1)
    }
}

pub fn generate(workload: &str, seed: u64, size: &Size) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    match workload {
        "warm-mix" => Some(warm_mix(&mut rng, size)),
        "append-events" => Some(append_events(&mut rng, size)),
        "disjunctive-search" => Some(disjunctive_search(&mut rng, size)),
        _ => None,
    }
}

/// A renaming of chains and predicates.
struct Rename {
    chain: Vec<usize>,
    pred: Vec<usize>,
}

impl Rename {
    /// Random permutations of `chains` chains and `preds` predicates.
    fn random(rng: &mut Rng, chains: usize, preds: usize) -> Rename {
        Rename {
            chain: permutation(rng, chains),
            pred: permutation(rng, preds),
        }
    }
}

fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

fn point(chain: usize, i: usize) -> String {
    format!("t{chain}_{i}")
}

/// A random label: one predicate of `0..preds`, a second one 30% of the
/// time (the label shape of the repository's `observers_database`).
fn label(rng: &mut Rng, preds: usize) -> Vec<usize> {
    let first = rng.below(preds);
    let mut l = vec![first];
    if rng.chance(0.3) {
        let second = rng.below(preds);
        if second != first {
            l.push(second);
        }
    }
    l
}

/// Observer chains as `FACT` payloads, `chunk` points per payload. The
/// first payload declares the predicates. `density` is the share of
/// labelled points; `le` the share of `<=` links. Chain `c` is named
/// `t{rename.chain[c]}` and predicate `p` is `P{rename.pred[p]}`.
#[allow(clippy::too_many_arguments)]
fn chains_load(
    rng: &mut Rng,
    chains: usize,
    len: usize,
    preds: usize,
    density: f64,
    le: f64,
    chunk: usize,
    rename: &Rename,
) -> Vec<String> {
    let decl: Vec<String> = (0..preds).map(|p| format!("pred P{p}(ord);")).collect();
    let mut load = vec![decl.join(" ")];
    for c in 0..chains {
        let mut frag = String::new();
        for i in 0..len {
            if rng.chance(density) {
                for p in label(rng, preds) {
                    let (p, c) = (rename.pred[p], rename.chain[c]);
                    frag.push_str(&format!("P{p}({}); ", point(c, i)));
                }
            }
            if i > 0 {
                let rel = if rng.chance(le) { "<=" } else { "<" };
                let c = rename.chain[c];
                frag.push_str(&format!("{} {rel} {}; ", point(c, i - 1), point(c, i)));
            }
            if (i + 1) % chunk == 0 || i + 1 == len {
                // A lone first point carries no atom unless labelled.
                if !frag.is_empty() {
                    load.push(frag.trim_end().to_string());
                }
                frag = String::new();
            }
        }
    }
    load
}

fn read(line: String, queries: Vec<usize>) -> Req {
    Req {
        line,
        kind: Kind::Read,
        queries,
        witness: false,
        inline: false,
    }
}

/// Rewrites every `P<i>(` of a query text to `P<pred[i]>(`.
fn rename_preds(text: &str, pred: &[usize]) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('P') {
        out.push_str(&rest[..=at]);
        rest = &rest[at + 1..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        match rest[..digits].parse::<usize>() {
            Ok(i) if rest[digits..].starts_with('(') => {
                out.push_str(&pred[i].to_string());
                rest = &rest[digits..];
            }
            _ => {}
        }
    }
    out.push_str(rest);
    out
}

/// The seeds of the fixed databases. The search cost of a database
/// swings with where its labels fall (for `disjunctive-search` by orders
/// of magnitude), so each workload serves one fixed database; the run
/// seed renames its chains and predicates and draws the request stream,
/// so every seed asks an isomorphic instance with its own stream.
const WARM_BASE: u64 = 0x5EED;
const EVENTS_BASE: u64 = 0xE7E7;
const DISJUNCTIVE_BASE: u64 = 15;

/// The prepared queries of `warm-mix` (and, without `ne`, of
/// `append-events`), one per engine route.
const ROUTE_QUERIES: [(&str, &str); 4] = [
    // seq: one flexi-word.
    (
        "seq",
        "exists a b c. P0(a) & a < b & P1(b) & b <= c & P2(c)",
    ),
    // paths: a branching order part.
    (
        "paths",
        "exists a b c. P0(a) & a < b & P1(b) & a < c & P2(c)",
    ),
    // disjunctive: the Thm 5.3 search.
    (
        "disj",
        "(exists s. P0(s) & P1(s)) | exists s t. P0(s) & s < t & P2(t)",
    ),
    // ne: query-side `!=`, expanded at prepare time.
    ("ne", "exists s t. P0(s) & P1(t) & s != t"),
];

/// The durable serving steady state: prepared reads over four engine
/// routes, `BATCH`es, inline queries and label writes, on one
/// connection. Every block of 40 requests holds 28 prepared `ENTAIL`s
/// (7 per route), 4 `BATCH`es, 4 inline `ENTAIL`s and 4 label writes, in
/// seeded order; a round is a run of whole blocks.
///
/// One connection, not two: with two, five threads shared the two
/// vCPUs, and in runs where the host took CPU away `ops_per_s` halved
/// and write p90 doubled; two concurrent scaffold searches also race for
/// the shared `D(S,T)` pair table (the loser recomputes on a private
/// one), so the read tail followed thread timing. Cross-chain order
/// edges are left out: each evicts pairs, and the refills moved read p90
/// by up to 4× between runs.
fn warm_mix(rng: &mut Rng, size: &Size) -> Workload {
    #[derive(Clone, Copy)]
    enum Slot {
        Route(usize),
        Batch,
        Inline,
        Label,
    }
    let len = if size.smoke { 32 } else { 512 };
    let rename = Rename::random(rng, 2, 3);
    let mut base = Rng::new(WARM_BASE);
    let load = chains_load(&mut base, 2, len, 3, 1.0, 0.2, 64, &rename);
    let mut queries: Vec<String> = ROUTE_QUERIES
        .iter()
        .map(|(_, q)| rename_preds(q, &rename.pred))
        .collect();
    let names: Vec<&str> = ROUTE_QUERIES.iter().map(|(n, _)| *n).collect();
    let prepared: Vec<(String, usize)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.to_string(), i))
        .collect();
    // Inline texts: parsed, put in DNF and prepared per request.
    let inline_first = queries.len();
    for (a, b, c) in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2)] {
        for q in [
            format!("exists x y. P{a}(x) & x < y & (P{b}(y) | P{c}(y))"),
            format!(
                "(exists x. P{a}(x) & P{b}(x)) | \
                 exists x y z. P{c}(x) & x < y & P{a}(y) & y <= z & P{b}(z)"
            ),
        ] {
            queries.push(rename_preds(&q, &rename.pred));
        }
    }
    let inline_count = queries.len() - inline_first;
    let batch = Req {
        line: format!("BATCH {}", names.join(" ")),
        kind: Kind::Read,
        queries: (0..names.len()).collect(),
        witness: false,
        inline: false,
    };
    let block: Vec<Slot> = (0..4)
        .flat_map(|k| std::iter::repeat_n(Slot::Route(k), 7))
        .chain(std::iter::repeat_n(Slot::Batch, 4))
        .chain(std::iter::repeat_n(Slot::Inline, 4))
        .chain(std::iter::repeat_n(Slot::Label, 4))
        .collect();
    let blocks = size.per_round(block.len());
    let mut round = || -> Vec<Req> {
        let mut stream = Vec::with_capacity(blocks * block.len());
        for _ in 0..blocks {
            for i in permutation(rng, block.len()) {
                stream.push(match block[i] {
                    Slot::Route(k) => read(format!("ENTAIL {}", names[k]), vec![k]),
                    Slot::Batch => batch.clone(),
                    Slot::Inline => {
                        let q = inline_first + rng.below(inline_count);
                        Req {
                            inline: true,
                            ..read(format!("ENTAIL {}", queries[q]), vec![q])
                        }
                    }
                    Slot::Label => {
                        let p = rename.pred[rng.below(3)];
                        let c = rename.chain[rng.below(2)];
                        Req::write(format!("P{p}({});", point(c, rng.below(len))))
                    }
                });
            }
        }
        stream
    };
    let rounds = (0..size.rounds).map(|_| round()).collect();
    Workload {
        name: "warm-mix",
        db: "warm",
        load,
        queries,
        prepared,
        rounds,
    }
}

/// The structural-write path, on one connection: each write appends a
/// fresh event after a chain tail, and is followed by one read of each
/// prepared route (seq, paths, disjunctive) on the snapshot it
/// published. Events of round `r` are named `e{r}_{i}`.
///
/// One connection, not a writer and a concurrent reader: the mutator
/// keeps a core busy through every write, and a concurrent reader's
/// latency followed how the two vCPUs were shared (its p50 moved by half
/// between runs of the same code).
fn append_events(rng: &mut Rng, size: &Size) -> Workload {
    let (chains, len) = if size.smoke { (2, 16) } else { (2, 256) };
    let rename = Rename::random(rng, chains, 3);
    let mut base = Rng::new(EVENTS_BASE);
    let load = chains_load(&mut base, chains, len, 3, 1.0, 0.2, 64, &rename);
    let queries: Vec<String> = ROUTE_QUERIES[..3]
        .iter()
        .map(|(_, q)| rename_preds(q, &rename.pred))
        .collect();
    let names: Vec<&str> = ROUTE_QUERIES[..3].iter().map(|(n, _)| *n).collect();
    let prepared = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.to_string(), i))
        .collect();
    let writes = size.per_round(1);
    let rounds = (0..size.rounds)
        .map(|r| {
            let mut tails: Vec<String> = (0..chains)
                .map(|c| point(rename.chain[c], len - 1))
                .collect();
            let mut stream = Vec::with_capacity(writes * (1 + names.len()));
            for e in 0..writes {
                let c = rng.below(chains);
                let ev = format!("e{r}_{e}");
                let mut frag = String::new();
                for p in label(rng, 3) {
                    frag.push_str(&format!("P{}({ev}); ", rename.pred[p]));
                }
                frag.push_str(&format!("{} < {ev};", tails[c]));
                tails[c] = ev;
                stream.push(Req::write(frag));
                for (k, name) in names.iter().enumerate() {
                    stream.push(read(format!("ENTAIL {name}"), vec![k]));
                }
            }
            stream
        })
        .collect();
    Workload {
        name: "append-events",
        db: "events",
        load,
        queries,
        prepared,
        rounds,
    }
}

/// The Thm 5.3 route: 2–3-disjunct prepared queries with
/// multi-predicate labels over three sparsely labelled chains, some
/// asked as `COUNTERMODEL`, on one connection; after every pass over
/// the queries, one label write on a predicate no query mentions.
///
/// The queries are part of the fixed instance (see `DISJUNCTIVE_BASE`).
fn disjunctive_search(rng: &mut Rng, size: &Size) -> Workload {
    let len = if size.smoke { 8 } else { 12 };
    let rename = Rename::random(rng, 3, 4);
    let mut base = Rng::new(DISJUNCTIVE_BASE);
    let mut load = chains_load(&mut base, 3, len, 4, 0.3, 0.2, 64, &rename);
    load[0].push_str(" pred Note(ord);");
    let mut queries = Vec::new();
    for k in 0..DISJUNCTIVE_QUERIES {
        let shapes: Vec<usize> = if k % 6 == 5 {
            // Rare label combinations: mostly not certain.
            vec![4, 5]
        } else {
            (0..2 + k % 2).map(|_| base.below(4)).collect()
        };
        let parts: Vec<String> = shapes
            .iter()
            .map(|&d| disjunct(d, &mut base, &rename.pred))
            .collect();
        queries.push(parts.join(" | "));
    }
    let prepared: Vec<(String, usize)> = (0..queries.len()).map(|k| (format!("d{k}"), k)).collect();
    // Every query is asked equally often, in seeded order: whole passes
    // of a fresh permutation, so the mix of costs is the same on every
    // seed and in every round. Countermodel requests go to the
    // not-certain queries; which those are is only known once the
    // verdicts are computed, so the caller marks them (see
    // `mark_countermodels`).
    let passes = size.per_round(queries.len());
    let rounds = (0..size.rounds)
        .map(|_| {
            let mut stream = Vec::with_capacity(passes * (queries.len() + 1));
            for _ in 0..passes {
                for k in permutation(rng, queries.len()) {
                    stream.push(read(format!("ENTAIL d{k}"), vec![k]));
                }
                let c = rename.chain[rng.below(3)];
                stream.push(Req::write(format!("Note({});", point(c, rng.below(len)))));
            }
            stream
        })
        .collect();
    Workload {
        name: "disjunctive-search",
        db: "search",
        load,
        queries,
        prepared,
        rounds,
    }
}

const DISJUNCTIVE_QUERIES: usize = 13;

/// Disjunct shape `d` over random predicates of `P0..P3` (renamed by
/// `pred`): multi-predicate labels on one or two points.
fn disjunct(d: usize, rng: &mut Rng, pred: &[usize]) -> String {
    let p: Vec<usize> = permutation(rng, 4).into_iter().map(|i| pred[i]).collect();
    match d {
        0 => format!("(exists x. P{}(x) & P{}(x))", p[0], p[1]),
        1 => format!("(exists x y. P{}(x) & x < y & P{}(y))", p[0], p[1]),
        2 => format!(
            "(exists x y. P{}(x) & P{}(x) & x < y & P{}(y))",
            p[0], p[1], p[2]
        ),
        3 => format!(
            "(exists x y. P{}(x) & x <= y & P{}(y) & P{}(y))",
            p[0], p[1], p[2]
        ),
        4 => format!("(exists x. P{}(x) & P{}(x) & P{}(x))", p[0], p[1], p[2]),
        _ => format!(
            "(exists x y. P{}(x) & P{}(x) & x < y & P{}(y) & P{}(y))",
            p[0], p[1], p[2], p[3]
        ),
    }
}

/// Turns every other read in a round of each query that is not certain
/// (`not_certain[q]`) into a `COUNTERMODEL`, which renders a model.
pub fn mark_countermodels(w: &mut Workload, not_certain: &[bool]) {
    for round in &mut w.rounds {
        mark_round(round, not_certain);
    }
}

fn mark_round(round: &mut [Req], not_certain: &[bool]) {
    let mut seen = vec![0usize; not_certain.len()];
    for req in round {
        if req.kind == Kind::Read && req.queries.len() == 1 && not_certain[req.queries[0]] {
            let q = req.queries[0];
            seen[q] += 1;
            if seen[q].is_multiple_of(2) {
                req.line = req.line.replacen("ENTAIL", "COUNTERMODEL", 1);
                req.witness = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: &Workload) -> Vec<String> {
        let mut out = w.load.clone();
        out.extend(w.prepare_lines());
        out.extend(w.rounds.iter().flatten().map(|r| r.line.clone()));
        out
    }

    #[test]
    fn a_seed_gives_the_same_lines() {
        let size = Size {
            requests: 200,
            rounds: 2,
            smoke: true,
        };
        for name in WORKLOADS {
            let a = generate(name, 3, &size).expect("known workload");
            let b = generate(name, 3, &size).expect("known workload");
            assert_eq!(lines(&a), lines(&b), "{name}");
            let c = generate(name, 4, &size).expect("known workload");
            assert_ne!(lines(&a), lines(&c), "{name}");
        }
    }

    #[test]
    fn rename_preds_touches_only_predicate_names() {
        assert_eq!(
            rename_preds("exists Pa. P0(Pa) & P12 < x & P1(Pa)", &[2, 0]),
            "exists Pa. P2(Pa) & P12 < x & P0(Pa)"
        );
    }
}
