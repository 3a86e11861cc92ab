//! Differential concurrency harness for the MVCC serving layer.
//!
//! Two properties pin the snapshot-isolation contract of
//! `indord-server`'s epoch MVCC (ISSUE 6):
//!
//! 1. **No torn states.** While a writer commits a known fragment
//!    sequence one commit at a time, reader threads continuously pin
//!    `Db::snapshot()` and check that every snapshot they observe
//!    is *exactly* some prefix of the committed sequence: its atom
//!    count is a prefix count (multi-atom fragments make intermediate
//!    counts detectable), its panel verdicts equal the oracle's
//!    verdicts for that prefix, and per-reader sequence numbers never
//!    regress.
//!
//! 2. **Group commit is invisible.** A proptest draws a pool of
//!    pairwise-commutative writes (so the final state is independent
//!    of apply order), applies them once sequentially over a single
//!    connection and once concurrently from several connections (where
//!    the mutator is free to coalesce them into group commits), and
//!    checks the two end states agree on batch verdicts, enumerated
//!    countermodel *sets*, and atom counts — with the grouped
//!    registry's stats audited for exact fragment/atom accounting.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use indord::core::atom::OrderRel;
use indord::core::bitset::PredSet;
use indord::core::monadic::{MonadicDatabase, MonadicQuery};
use indord::core::ordgraph::OrderGraph;
use indord::core::parse::{parse_database, parse_query, parse_query_expr_in};
use indord::core::session::Session;
use indord::core::sym::{PredSym, Vocabulary};
use indord::entail::{disjunctive, ineq, Engine};
use indord_server::protocol::Response;
use indord_server::runtime::{Conn, Registry};
use proptest::prelude::*;

/// Seed database: three predicates over six constants with two forward
/// order edges. Every generated write below stays forward, so any
/// subset in any order is consistent.
const SEED: &str = "pred P0(ord); pred P1(ord); pred P2(ord); \
     P0(c0); P1(c1); P2(c2); P0(c3); P1(c4); P2(c5); c0 < c1; c1 <= c2;";

/// Seed atom count: six labels plus two order edges.
const SEED_ATOMS: usize = 8;

/// The verdict panel. Chosen so verdicts *flip* at different prefixes
/// of the write sequence (a panel that never changes would accept a
/// stale-oracle bug), and so the `!=`-extended §7 route is exercised.
const PANEL: [&str; 4] = [
    "exists a b. P0(a) & a < b & P1(b)",
    "exists a b. P2(a) & a < b & P0(b)",
    "(exists s. P1(s) & P2(s)) | exists s t. P2(s) & s < t & P1(t)",
    "exists s t. P1(s) & s != t & P1(t)",
];

/// Evaluates the panel against an arbitrary (vocabulary, session)
/// pair without mutating the vocabulary — exactly the read path a
/// snapshot serves.
fn eval_panel(voc: &Vocabulary, session: &Session) -> Vec<bool> {
    let eng = Engine::new(voc);
    PANEL
        .iter()
        .map(|text| {
            let expr = parse_query_expr_in(voc, text).expect("panel query parses");
            let q = expr.to_dnf(voc).expect("panel query normalizes");
            let pq = eng.prepare(&q).expect("panel query prepares");
            eng.entails_prepared(session, &pq)
                .expect("panel query evaluates")
                .holds()
        })
        .collect()
}

/// Oracle for one committed prefix: rebuild from scratch and decide
/// the panel with a direct engine. Returns (atom count, verdicts).
fn oracle_prefix(writes: &[&str]) -> (usize, Vec<bool>) {
    let mut voc = Vocabulary::new();
    let text: String = std::iter::once(SEED)
        .chain(writes.iter().copied())
        .collect::<Vec<_>>()
        .join(" ");
    let db = parse_database(&mut voc, &text).expect("oracle database parses");
    let queries: Vec<_> = PANEL
        .iter()
        .map(|q| parse_query(&mut voc, q).expect("oracle query parses"))
        .collect();
    let eng = Engine::new(&voc);
    let verdicts = queries
        .iter()
        .map(|q| eng.entails(&db, q).expect("oracle evaluates").holds())
        .collect();
    (db.len(), verdicts)
}

/// Property 1: every snapshot a reader observes is a committed prefix.
///
/// The write sequence mixes patchable and structural fragments and
/// includes several multi-atom fragments whose *intermediate* atom
/// counts appear in no prefix — so a reader that ever saw a half-applied
/// fragment (a torn state) would fail the prefix-count lookup.
#[test]
fn snapshots_are_prefixes_of_the_committed_write_sequence() {
    const WRITES: [&str; 8] = [
        "P2(c0);",
        "c2 < c3; c3 <= c4;",
        "P0(d0); P1(d1); d0 < d1;",
        "c4 != c5;",
        "c0 <= c1; P1(c5);",
        "d1 < c0;",
        "P2(d0); c1 != d1;",
        "e0 <= e1; P0(e0);",
    ];
    const READERS: usize = 4;

    // Oracle: committed prefix -> expected panel, keyed by atom count.
    // Counts are strictly increasing, so the key is unique; intermediate
    // counts inside multi-atom fragments are absent by construction.
    let mut by_atoms: HashMap<usize, Vec<bool>> = HashMap::new();
    let mut counts = Vec::new();
    for i in 0..=WRITES.len() {
        let (atoms, verdicts) = oracle_prefix(&WRITES[..i]);
        assert_eq!(
            counts.last().map(|&c| c < atoms),
            if i == 0 { None } else { Some(true) },
            "prefix atom counts must be strictly increasing"
        );
        counts.push(atoms);
        by_atoms.insert(atoms, verdicts);
    }
    assert_eq!(counts[0], SEED_ATOMS);

    let registry = Arc::new(Registry::new());
    let mut writer = Conn::new(Arc::clone(&registry));
    assert!(matches!(writer.handle_line("OPEN lab"), Response::Ok(_)));
    assert!(matches!(
        writer.handle_line(&format!("FACT {SEED}")),
        Response::Ok(_)
    ));
    let db = registry.get("lab").expect("lab exists");

    let stop = AtomicBool::new(false);
    let observed: u64 = thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let db = &db;
                let stop = &stop;
                let by_atoms = &by_atoms;
                scope.spawn(move || {
                    let mut seen = 0u64;
                    let mut last_seq = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = db.snapshot();
                        assert!(
                            snap.seq() >= last_seq,
                            "snapshot sequence regressed: {} after {last_seq}",
                            snap.seq()
                        );
                        last_seq = snap.seq();
                        let atoms = snap.session().len();
                        let expected = by_atoms.get(&atoms).unwrap_or_else(|| {
                            panic!("torn snapshot: {atoms} atoms matches no committed prefix")
                        });
                        let got = eval_panel(snap.vocabulary(), snap.session());
                        assert_eq!(
                            &got, expected,
                            "snapshot at {atoms} atoms disagrees with its prefix oracle"
                        );
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();

        // The committed sequence is program order on this one connection:
        // each FACT blocks until its commit is published. The pauses keep
        // the readers sampling across many distinct prefixes.
        for w in WRITES {
            match writer.handle_line(&format!("FACT {w}")) {
                Response::Ok(_) => {}
                other => panic!("FACT {w}: unexpected {other:?}"),
            }
            thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(observed > 0, "readers must observe at least one snapshot");

    // The final snapshot is the full sequence.
    let snap = db.snapshot();
    assert_eq!(snap.session().len(), *counts.last().unwrap());
    assert_eq!(
        eval_panel(snap.vocabulary(), snap.session()),
        by_atoms[counts.last().unwrap()]
    );
}

// ---------------------------------------------------------------------
// Property 2: group-committed writes == the same fragments one-by-one.
// ---------------------------------------------------------------------

/// One single-atom write from a pairwise-commutative pool: labels and
/// `!=` over the six seed constants, strictly *forward* order edges
/// (index-increasing, so no cycle and no `<=`-merge can ever form
/// regardless of apply order), and structural fresh-constant labels.
/// Every write succeeds and the final state is order-independent —
/// which is what makes the grouped-vs-sequential comparison exact.
/// (Rollback of *rejected* fragments under grouping is covered by the
/// runtime unit tests; it is inherently order-sensitive.)
#[derive(Debug, Clone)]
enum W {
    Label(usize, usize),
    Lt(usize, usize),
    Le(usize, usize),
    Ne(usize, usize),
    Fresh(usize, usize),
}

impl W {
    fn render(&self) -> String {
        match *self {
            W::Label(p, i) => format!("P{p}(c{i});"),
            W::Lt(a, b) => format!("c{a} < c{b};"),
            W::Le(a, b) => format!("c{a} <= c{b};"),
            W::Ne(a, b) => format!("c{a} != c{b};"),
            W::Fresh(p, k) => format!("P{p}(f{k});"),
        }
    }
}

fn write_op() -> impl Strategy<Value = W> {
    let forward = || (0..5usize).prop_flat_map(|a| (Just(a), (a + 1)..6usize));
    prop_oneof![
        (0..3usize, 0..6usize).prop_map(|(p, i)| W::Label(p, i)),
        forward().prop_map(|(a, b)| W::Lt(a, b)),
        forward().prop_map(|(a, b)| W::Le(a, b)),
        forward().prop_map(|(a, b)| W::Ne(a, b)),
        (0..3usize, 0..4usize).prop_map(|(p, k)| W::Fresh(p, k)),
    ]
}

/// Builds a registry with the seed installed and the panel prepared
/// under names `q0..q3`, returning the admin connection.
fn seeded_conn(registry: &Arc<Registry>) -> Conn {
    let mut c = Conn::new(Arc::clone(registry));
    assert!(matches!(c.handle_line("OPEN lab"), Response::Ok(_)));
    assert!(matches!(
        c.handle_line(&format!("FACT {SEED}")),
        Response::Ok(_)
    ));
    for (i, q) in PANEL.iter().enumerate() {
        assert!(matches!(
            c.handle_line(&format!("PREPARE q{i}: {q}")),
            Response::Ok(_)
        ));
    }
    c
}

fn ps(ids: &[usize]) -> PredSet {
    ids.iter().copied().map(PredSym::from_index).collect()
}

/// The panel of PANEL's queries in monadic form (PredSym indices 0..3
/// are stable across runs: both registries intern P0, P1, P2 from the
/// identical seed text first). Each entry is one disjunct list.
fn monadic_panel() -> Vec<Vec<MonadicQuery>> {
    let chain = |lo: usize, hi: usize| {
        MonadicQuery::new(
            OrderGraph::from_dag_edges(2, &[(0, 1, OrderRel::Lt)]).unwrap(),
            vec![ps(&[lo]), ps(&[hi])],
        )
    };
    let single = |ids: &[usize]| {
        MonadicQuery::new(OrderGraph::from_dag_edges(1, &[]).unwrap(), vec![ps(ids)])
    };
    let mut ne_pair = MonadicQuery::new(
        OrderGraph::from_dag_edges(2, &[]).unwrap(),
        vec![ps(&[1]), ps(&[1])],
    );
    ne_pair.ne.push((0, 1));
    // Thm 5.3 search takes [<,<=] disjuncts only: expand the `!=` query
    // into its order-saturated disjunction first (§7).
    let ne_expanded = ineq::eliminate_ne(&ne_pair, 64).expect("!= expansion fits the cap");
    vec![
        vec![chain(0, 1)],
        vec![chain(2, 0)],
        vec![single(&[1, 2]), chain(2, 1)],
        ne_expanded,
    ]
}

/// Enumerated countermodel sets for the monadic panel against one
/// snapshot's state. Model *sets* (not rendered witnesses) are the
/// right comparison: vertex numbering differs across apply orders, but
/// the minimal-countermodel words are canonical.
fn countermodel_sets(mdb: &MonadicDatabase) -> Vec<HashSet<indord::core::model::MonadicModel>> {
    monadic_panel()
        .iter()
        .map(|disjuncts| {
            disjunctive::countermodels(mdb, disjuncts, 4096)
                .expect("countermodel enumeration succeeds")
                .into_iter()
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn group_committed_writes_match_one_by_one(
        ops in proptest::collection::vec(write_op(), 1..=10)
    ) {
        let frags: Vec<String> = ops.iter().map(W::render).collect();
        let batch = format!(
            "BATCH {}",
            (0..PANEL.len()).map(|i| format!("q{i}")).collect::<Vec<_>>().join(" ")
        );

        // (a) Sequential: one connection, one fragment per commit.
        let reg_a = Arc::new(Registry::new());
        let mut ca = seeded_conn(&reg_a);
        for f in &frags {
            prop_assert!(
                matches!(ca.handle_line(&format!("FACT {f}")), Response::Ok(_)),
                "sequential FACT {f} must succeed"
            );
        }

        // (b) Grouped: the same fragments submitted from four concurrent
        // connections; the mutator coalesces whatever it finds queued.
        let reg_b = Arc::new(Registry::new());
        let mut cb = seeded_conn(&reg_b);
        thread::scope(|scope| {
            for t in 0..4usize {
                let frags = &frags;
                let reg_b = Arc::clone(&reg_b);
                scope.spawn(move || {
                    let mut c = Conn::new(reg_b);
                    assert!(matches!(c.handle_line("USE lab"), Response::Ok(_)));
                    for f in frags.iter().skip(t).step_by(4) {
                        match c.handle_line(&format!("FACT {f}")) {
                            Response::Ok(_) => {}
                            other => panic!("grouped FACT {f}: unexpected {other:?}"),
                        }
                    }
                });
            }
        });

        // Verdicts agree.
        let va = ca.handle_line(&batch);
        let vb = cb.handle_line(&batch);
        prop_assert!(matches!(va, Response::Verdicts(_)), "BATCH answers verdicts");
        prop_assert_eq!(&va, &vb, "sequential and grouped verdicts differ");

        // Countermodel sets agree (deeper than verdicts: the full
        // minimal-model frontier of each panel query must match).
        let snap_a = reg_a.get("lab").unwrap().snapshot();
        let snap_b = reg_b.get("lab").unwrap().snapshot();
        let mdb_a = snap_a.session().monadic(snap_a.vocabulary()).expect("monadic view");
        let mdb_b = snap_b.session().monadic(snap_b.vocabulary()).expect("monadic view");
        prop_assert_eq!(
            countermodel_sets(mdb_a),
            countermodel_sets(mdb_b),
            "countermodel sets diverge between sequential and grouped runs"
        );

        // Stats audit on the grouped registry: exact fragment and atom
        // accounting under whatever grouping happened.
        let sb = match cb.handle_line("STATS") {
            Response::Stats(s) => *s,
            other => panic!("STATS: unexpected {other:?}"),
        };
        let sa = match ca.handle_line("STATS") {
            Response::Stats(s) => *s,
            other => panic!("STATS: unexpected {other:?}"),
        };
        prop_assert_eq!(sa.atoms, sb.atoms, "final atom counts differ");
        // Fragments: the seed plus every generated op, each applied once.
        prop_assert_eq!(
            sb.patchable_writes + sb.structural_writes,
            1 + frags.len() as u64
        );
        // Atoms: the seed's eight plus one per single-atom op.
        prop_assert_eq!(sb.writes, (SEED_ATOMS + frags.len()) as u64);
        // Every job (seed + panel prepares + ops) passed through a group.
        prop_assert_eq!(
            sb.group_fragments,
            (1 + PANEL.len() + frags.len()) as u64
        );
        prop_assert!(sb.snapshots_published >= 1);
        prop_assert_eq!(sb.commit_queue_depth, 0, "queue must drain");
    }
}

/// A panic inside ONE fragment's apply must not poison its groupmates:
/// the faulty job gets the typed internal error, the writes queued
/// around it in the *same* group commit ack normally, and the
/// published snapshot contains exactly the groupmates — unpoisoned,
/// readable, and consistent with the sequential oracle. (The escaped
/// variant — a panic outside the per-job guard — is the supervisor's
/// business and lives in the chaos suite.)
#[test]
fn contained_apply_panic_spares_groupmates() {
    let registry = Arc::new(Registry::new());
    let mut c = seeded_conn(&registry);
    let db = registry.get("lab").unwrap();

    // Stall the mutator, then enqueue W1 / boom / W2 from this one
    // thread so they drain as a single deterministic group.
    let stall = db.stall_mutator(Duration::from_millis(200)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while db.stats().commit_queue_depth() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "mutator never took the stall"
        );
        thread::sleep(Duration::from_millis(1));
    }
    let rx1 = db.enqueue_fragment("P2(c0);").unwrap();
    let boom = db.inject_mutator_panic(false).unwrap();
    let rx2 = db.enqueue_fragment("P0(c5);").unwrap();
    stall.recv().unwrap().unwrap();

    // Groupmates ack; the faulty job reports the typed internal error.
    match rx1.recv().unwrap() {
        Ok(Response::Ok(msg)) => assert!(msg.contains("inserted 1 atoms"), "{msg}"),
        other => panic!("W1: unexpected {other:?}"),
    }
    match boom.recv().unwrap() {
        Err(e) => assert!(
            e.message
                .contains("internal error while applying the write"),
            "boom: {e:?}"
        ),
        other => panic!("boom: unexpected {other:?}"),
    }
    match rx2.recv().unwrap() {
        Ok(Response::Ok(msg)) => assert!(msg.contains("inserted 1 atoms"), "{msg}"),
        other => panic!("W2: unexpected {other:?}"),
    }

    // No restart, no health change: the per-job guard contained it.
    assert_eq!(db.stats().mutator_restarts(), 0);
    let (state, _) = db.health();
    assert_eq!(state, indord_server::protocol::HealthState::Ok);

    // The published snapshot is the seed plus exactly the groupmates —
    // same text, same panel — per the sequential oracle.
    let oreg = Arc::new(Registry::new());
    let mut oc = seeded_conn(&oreg);
    for f in ["P2(c0);", "P0(c5);"] {
        assert!(matches!(
            oc.handle_line(&format!("FACT {f}")),
            Response::Ok(_)
        ));
    }
    let snap = db.snapshot();
    let osnap = oreg.get("lab").unwrap().snapshot();
    assert_eq!(snap.session().len(), osnap.session().len());
    assert_eq!(
        snap.session()
            .database()
            .display(snap.vocabulary())
            .to_string(),
        osnap
            .session()
            .database()
            .display(osnap.vocabulary())
            .to_string(),
        "groupmates' snapshot diverges from the oracle"
    );
    for q in PANEL {
        assert_eq!(
            c.handle_line(&format!("ENTAIL {q}")),
            oc.handle_line(&format!("ENTAIL {q}")),
            "panel `{q}` diverges after a contained panic"
        );
    }
    // And the write path is still alive.
    assert!(matches!(c.handle_line("FACT P1(c3);"), Response::Ok(_)));
}
