//! Crash-recovery differential suite for the durable serving layer.
//!
//! The contract under test (ISSUE 7): a server killed at an *arbitrary
//! WAL byte offset* and restarted recovers exactly the longest durable
//! prefix of its committed write sequence — identical verdicts,
//! identical countermodel sets, identical prepared registries — and
//! comes back warm. "Identical" is decided differentially against an
//! in-process oracle: a plain in-memory registry that applies the same
//! prefix of protocol lines through the live write path.
//!
//! The kill is simulated at the byte level: run a durable registry to
//! completion, take its WAL bytes, and restart from an arbitrary
//! truncation — every whole frame below the cut is a write the crashed
//! server acked (group fsync) and must survive; the torn frame at the
//! cut was never acked and must vanish without trace.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use indord::core::atom::OrderRel;
use indord::core::bitset::PredSet;
use indord::core::monadic::{MonadicDatabase, MonadicQuery};
use indord::core::ordgraph::OrderGraph;
use indord::core::sym::PredSym;
use indord::entail::{disjunctive, ineq};
use indord_server::durable::StorageConfig;
use indord_server::protocol::Response;
use indord_server::runtime::{Conn, Db, Registry};
use indord_storage::wal::scan;
use indord_storage::FsyncPolicy;
use proptest::prelude::*;

fn tempdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "indord-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// The committed write sequence: protocol lines, applied in this order
/// by both the durable run and the oracle. Mixes patchable and
/// structural fragments, multi-atom fragments, `!=`, and `PREPARE`
/// compilations (so the prepared registry is part of what recovery must
/// reproduce). Every line succeeds, so `k` durable records ⇔ the first
/// `k` lines applied.
const OPS: [&str; 9] = [
    "FACT pred P0(ord); pred P1(ord); pred P2(ord); \
     P0(c0); P1(c1); P2(c2); P0(c3); P1(c4); P2(c5); c0 < c1; c1 <= c2;",
    "FACT P2(c0);",
    "FACT c2 < c3; c3 <= c4;",
    "PREPARE q0: exists a b. P0(a) & a < b & P1(b)",
    "FACT P0(d0); P1(d1); d0 < d1;",
    "FACT c4 != c5;",
    "PREPARE q1: exists s t. P1(s) & s != t & P1(t)",
    "FACT c0 <= c1; P1(c5);",
    "FACT d1 < c0;",
];

/// Inline panel queries (evaluated as `ENTAIL <query>` on both sides;
/// responses — errors included, e.g. before the seed's declarations
/// exist — must match verbatim).
const PANEL: [&str; 4] = [
    "exists a b. P0(a) & a < b & P1(b)",
    "exists a b. P2(a) & a < b & P0(b)",
    "(exists s. P1(s) & P2(s)) | exists s t. P2(s) & s < t & P1(t)",
    "exists s t. P1(s) & s != t & P1(t)",
];

fn ps(ids: &[usize]) -> PredSet {
    ids.iter().copied().map(PredSym::from_index).collect()
}

/// Monadic panel for countermodel-set comparison (PredSym indices are
/// stable: both sides intern P0, P1, P2 from the identical seed line).
fn monadic_panel() -> Vec<Vec<MonadicQuery>> {
    let chain = |lo: usize, hi: usize| {
        MonadicQuery::new(
            OrderGraph::from_dag_edges(2, &[(0, 1, OrderRel::Lt)]).unwrap(),
            vec![ps(&[lo]), ps(&[hi])],
        )
    };
    let mut ne_pair = MonadicQuery::new(
        OrderGraph::from_dag_edges(2, &[]).unwrap(),
        vec![ps(&[1]), ps(&[1])],
    );
    ne_pair.ne.push((0, 1));
    let ne_expanded = ineq::eliminate_ne(&ne_pair, 64).expect("!= expansion fits the cap");
    vec![vec![chain(0, 1)], vec![chain(2, 0)], ne_expanded]
}

/// Enumerated countermodel *sets* for the monadic panel — canonical
/// minimal-model words, independent of internal vertex numbering.
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

/// Applies the first `k` OPS to a fresh in-memory registry — the
/// sequential oracle for a crash that made exactly `k` records durable.
fn oracle(k: usize) -> (Arc<Registry>, Conn) {
    let registry = Arc::new(Registry::new());
    let mut c = Conn::new(Arc::clone(&registry));
    assert!(matches!(c.handle_line("OPEN lab"), Response::Ok(_)));
    for op in &OPS[..k] {
        match c.handle_line(op) {
            Response::Ok(_) => {}
            other => panic!("oracle op `{op}`: unexpected {other:?}"),
        }
    }
    (registry, c)
}

/// Runs the full OPS sequence durably into `root` and returns the
/// resulting WAL bytes of database `lab`. The registry is dropped —
/// i.e. gracefully shut down — before the bytes are read.
fn committed_wal(root: &Path, fsync: FsyncPolicy) -> Vec<u8> {
    {
        let cfg = StorageConfig {
            root: root.to_path_buf(),
            fsync,
            snapshot_every: 10_000, // never: the whole sequence stays in the log
        };
        let registry = Arc::new(Registry::with_storage(cfg).unwrap());
        let mut c = Conn::new(Arc::clone(&registry));
        assert!(matches!(c.handle_line("OPEN lab"), Response::Ok(_)));
        for op in OPS {
            match c.handle_line(op) {
                Response::Ok(_) => {}
                other => panic!("durable op `{op}`: unexpected {other:?}"),
            }
        }
        registry.shutdown_dbs();
    }
    std::fs::read(root.join("lab").join("wal.log")).unwrap()
}

/// Restarts a registry from a data dir whose `lab` WAL is exactly
/// `bytes` — the on-disk state a kill at that byte offset leaves.
fn restart_from(bytes: &[u8], tag: &str) -> (PathBuf, Arc<Registry>, Conn) {
    let root = tempdir(tag);
    std::fs::create_dir_all(root.join("lab")).unwrap();
    std::fs::write(root.join("lab").join("wal.log"), bytes).unwrap();
    let cfg = StorageConfig {
        root: root.clone(),
        fsync: FsyncPolicy::Group,
        snapshot_every: 10_000,
    };
    let registry = Arc::new(Registry::with_storage(cfg).unwrap());
    let mut c = Conn::new(Arc::clone(&registry));
    assert!(matches!(c.handle_line("USE lab"), Response::Ok(_)));
    (root, registry, c)
}

/// The differential check: the recovered database must be
/// indistinguishable from the oracle at prefix `k` — same state text,
/// same prepared registry, same panel responses, same countermodel
/// sets — and must have booted warm. `replayed` is the number of WAL
/// records recovery had to replay — `k` when no snapshot folded any,
/// fewer when one did.
fn assert_matches_oracle(recovered: &Arc<Db>, rc: &mut Conn, k: usize, replayed: u64) {
    let (oreg, mut oc) = oracle(k);
    let odb = oreg.get("lab").unwrap();
    let rsnap = recovered.snapshot();
    let osnap = odb.snapshot();

    // State: identical apply order from identical empty states makes
    // the database display text byte-identical, not just equivalent.
    assert_eq!(rsnap.session().len(), osnap.session().len(), "k={k}");
    assert_eq!(
        rsnap
            .session()
            .database()
            .display(rsnap.vocabulary())
            .to_string(),
        osnap
            .session()
            .database()
            .display(osnap.vocabulary())
            .to_string(),
        "k={k}: recovered database text diverges from the oracle"
    );

    // Prepared registry: same names compiled.
    assert_eq!(rsnap.prepared_len(), osnap.prepared_len(), "k={k}");
    for name in ["q0", "q1"] {
        assert_eq!(
            rc.handle_line(&format!("ENTAIL {name}")),
            oc.handle_line(&format!("ENTAIL {name}")),
            "k={k}: prepared `{name}` diverges (missing on one side?)"
        );
    }

    // Panel verdicts through the live read path (warm caches included).
    for q in PANEL {
        assert_eq!(
            rc.handle_line(&format!("ENTAIL {q}")),
            oc.handle_line(&format!("ENTAIL {q}")),
            "k={k}: panel `{q}` diverges"
        );
    }

    // Countermodel sets (deeper than verdicts: the whole minimal-model
    // frontier). Only meaningful once the seed declared the predicates.
    if k >= 1 {
        let rmdb = rsnap
            .session()
            .monadic(rsnap.vocabulary())
            .expect("monadic view");
        let omdb = osnap
            .session()
            .monadic(osnap.vocabulary())
            .expect("monadic view");
        assert_eq!(
            countermodel_sets(rmdb),
            countermodel_sets(omdb),
            "k={k}: countermodel sets diverge"
        );
    }

    // Warm restart: recovery built the scaffold once, at boot; the
    // panel evaluations above must not have rebuilt it.
    if k >= 1 {
        let Response::Stats(s) = rc.handle_line("STATS") else {
            panic!("expected stats");
        };
        assert_eq!(s.scaffold_builds, 1, "k={k}: boot must build the scaffold");
        assert_eq!(s.scaffold_rebuilds, 0, "k={k}: restart must be warm");
        assert_eq!(s.recovery_replayed_fragments, replayed, "k={k}");
    }
}

/// Kill at every frame boundary (clean group-commit crashes): each
/// prefix recovers exactly, and the reopened log keeps appending with
/// ids that never reset.
#[test]
fn kill_at_frame_boundaries_recovers_each_committed_prefix() {
    let root = tempdir("boundary");
    let wal = committed_wal(&root, FsyncPolicy::Group);
    let full = scan(&wal);
    assert_eq!(full.records.len(), OPS.len(), "one WAL record per op");
    assert!(full.torn.is_none());

    let mut ends: Vec<usize> = Vec::new();
    let mut acc = 0usize;
    for (_, payload) in &full.records {
        acc += indord_storage::wal::HEADER_LEN + payload.len();
        ends.push(acc);
    }
    for (k, &cut) in std::iter::once(&0usize).chain(ends.iter()).enumerate() {
        let (r2, registry, mut rc) = restart_from(&wal[..cut], "boundary-cut");
        let db = registry.get("lab").unwrap();
        assert_matches_oracle(&db, &mut rc, k, k as u64);
        // The sequence continues past the crash: a post-recovery write
        // lands with the next id — ids never reset, even at k=0.
        assert!(matches!(
            rc.handle_line("FACT pred R(ord); R(z0);"),
            Response::Ok(_)
        ));
        registry.shutdown_dbs();
        let reopened = std::fs::read(r2.join("lab").join("wal.log")).unwrap();
        let s2 = scan(&reopened);
        assert_eq!(s2.records.len(), k + 1);
        assert_eq!(s2.records.last().unwrap().0, k as u64 + 1);
        drop(registry);
        std::fs::remove_dir_all(&r2).unwrap();
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A corrupt (killed-mid-write) snapshot file must not poison recovery:
/// the loader skips it and falls back to the previous valid snapshot
/// plus the WAL tail — which together still hold every acked write.
#[test]
fn kill_mid_snapshot_falls_back_to_snapshot_plus_wal() {
    let root = tempdir("midsnap");
    {
        let cfg = StorageConfig {
            root: root.clone(),
            fsync: FsyncPolicy::Group,
            snapshot_every: 10_000,
        };
        let registry = Arc::new(Registry::with_storage(cfg).unwrap());
        let mut c = Conn::new(Arc::clone(&registry));
        assert!(matches!(c.handle_line("OPEN lab"), Response::Ok(_)));
        for op in &OPS[..5] {
            assert!(matches!(c.handle_line(op), Response::Ok(_)), "{op}");
        }
        // A valid snapshot folding the first five ops...
        assert!(matches!(c.handle_line("FLUSH"), Response::Ok(_)));
        // ...then more WAL-only writes on top of it.
        for op in &OPS[5..] {
            assert!(matches!(c.handle_line(op), Response::Ok(_)), "{op}");
        }
        registry.shutdown_dbs();
    }
    // The kill lands mid-snapshot-write: a newer snapshot file exists
    // but its content is torn garbage.
    std::fs::write(
        root.join("lab")
            .join(format!("snap-{:020}.snap", 99_999u64)),
        b"INDSNAPgarbage-cut-short",
    )
    .unwrap();
    let cfg = StorageConfig {
        root: root.clone(),
        fsync: FsyncPolicy::Group,
        snapshot_every: 10_000,
    };
    let registry = Arc::new(Registry::with_storage(cfg).unwrap());
    let mut rc = Conn::new(Arc::clone(&registry));
    assert!(matches!(rc.handle_line("USE lab"), Response::Ok(_)));
    let db = registry.get("lab").unwrap();
    // The valid snapshot folded the first five ops; only the four
    // post-snapshot records replay.
    assert_matches_oracle(&db, &mut rc, OPS.len(), (OPS.len() - 5) as u64);
    drop(registry);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Graceful shutdown is a durability barrier even under `fsync=os`
/// (which never syncs during serving): the drain fsyncs the tail
/// before the shutdown ack, so a reopen finds everything.
#[test]
fn graceful_shutdown_makes_the_tail_durable_under_fsync_os() {
    let root = tempdir("shutdown-os");
    let wal = committed_wal(&root, FsyncPolicy::Os);
    let s = scan(&wal);
    assert_eq!(s.records.len(), OPS.len());
    let (r2, registry, mut rc) = restart_from(&wal, "shutdown-os-restart");
    let db = registry.get("lab").unwrap();
    assert_matches_oracle(&db, &mut rc, OPS.len(), OPS.len() as u64);
    drop(registry);
    std::fs::remove_dir_all(&r2).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A WAL `append` error in the *middle* of a multi-fragment group
/// commit: the fragment whose append failed — and every groupmate
/// behind it, the io being dead after the fault — must be neither
/// applied nor acked, while the groupmates whose appends succeeded
/// commit normally. Log-before-apply is per fragment, not per group, so
/// a group is allowed to split at the fault: the durable prefix of the
/// group survives, the rest is rejected with a typed error, and replay
/// of the surviving WAL reproduces exactly the acked prefix.
#[test]
fn wal_append_fault_mid_group_rejects_the_tail_of_the_group() {
    use indord::core::parse::parse_database;
    use indord::core::sym::Vocabulary;
    use indord_storage::wal::{Fault, FaultIo, FaultKind, HEADER_LEN};
    use indord_storage::Wal;
    use std::time::Duration;

    const SEED: &str = "pred P0(ord); pred P1(ord); pred P2(ord); P0(c0); P1(c1); c0 < c1;";
    // All three are patchable label facts on seed constants, so the
    // group's stable sort preserves enqueue order and the fault lands
    // on a known fragment.
    const W1: &str = "P2(c0);";
    const W2: &str = "P0(c1);";
    const W3: &str = "P1(c0);";

    let root = tempdir("midgroup-fault");
    let cfg = StorageConfig {
        root: root.clone(),
        fsync: FsyncPolicy::Group,
        snapshot_every: 10_000,
    };
    let registry = Arc::new(Registry::with_storage(cfg).unwrap());
    let mut voc = Vocabulary::new();
    let seed_db = parse_database(&mut voc, SEED).unwrap();

    // The WAL dies exactly at the end of W1's frame: W1's append
    // succeeds, W2's append crosses the fault (nothing persists), and
    // W3 hits the dead io.
    let at_byte = (HEADER_LEN + format!("FACT {W1}").len()) as u64;
    let (io, persisted) = FaultIo::new(Fault {
        at_byte,
        kind: FaultKind::Error,
    });
    let wal = Wal::new(Box::new(io), FsyncPolicy::Group, 1);
    let db = registry
        .install_durable_with_wal("lab", voc, seed_db, wal)
        .unwrap();

    // Occupy the mutator, wait until it has taken the stall job off the
    // queue, then enqueue the three writes from this one thread —
    // channel FIFO makes them one deterministic group in W1..W3 order.
    let stall_rx = db.stall_mutator(Duration::from_millis(200)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while db.stats().commit_queue_depth() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "mutator never took the stall"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let rx1 = db.enqueue_fragment(W1).unwrap();
    let rx2 = db.enqueue_fragment(W2).unwrap();
    let rx3 = db.enqueue_fragment(W3).unwrap();
    stall_rx.recv().unwrap().unwrap();

    // W1: appended, applied, acked.
    match rx1.recv().unwrap() {
        Ok(Response::Ok(msg)) => assert!(msg.contains("inserted 1 atoms"), "{msg}"),
        other => panic!("W1: unexpected {other:?}"),
    }
    // W2 (the faulting append) and W3 (dead io): rejected, not applied.
    for (tag, rx) in [("W2", rx2), ("W3", rx3)] {
        match rx.recv().unwrap() {
            Err(e) => assert!(
                e.message.contains("write-ahead log append failed"),
                "{tag}: {e:?}"
            ),
            other => panic!("{tag}: unexpected {other:?}"),
        }
    }
    // One stall group + one three-write group, not three singletons.
    assert_eq!(db.stats().group_commits(), 2);
    assert_eq!(db.stats().group_fragments(), 4);

    // The published state is the oracle at seed + W1 — byte-identical
    // text, so W2/W3 contributed nothing.
    let (oreg, mut oc) = {
        let oreg = Arc::new(Registry::new());
        let mut voc = Vocabulary::new();
        let odb = parse_database(&mut voc, SEED).unwrap();
        oreg.install("lab", voc, odb);
        let mut oc = Conn::new(Arc::clone(&oreg));
        assert!(matches!(oc.handle_line("USE lab"), Response::Ok(_)));
        match oc.handle_line(&format!("FACT {W1}")) {
            Response::Ok(_) => {}
            other => panic!("oracle W1: unexpected {other:?}"),
        }
        (oreg, oc)
    };
    let osnap = oreg.get("lab").unwrap().snapshot();
    let rsnap = db.snapshot();
    assert_eq!(
        rsnap
            .session()
            .database()
            .display(rsnap.vocabulary())
            .to_string(),
        osnap
            .session()
            .database()
            .display(osnap.vocabulary())
            .to_string(),
        "rejected groupmates leaked into the published state"
    );
    let mut rc = Conn::new(Arc::clone(&registry));
    assert!(matches!(rc.handle_line("USE lab"), Response::Ok(_)));
    for q in [
        "exists a. P2(a) & P0(a)",
        "exists a b. P0(a) & a < b & P0(b)",
    ] {
        assert_eq!(
            rc.handle_line(&format!("ENTAIL {q}")),
            oc.handle_line(&format!("ENTAIL {q}")),
            "panel `{q}` diverges from the seed+W1 oracle"
        );
    }

    // Replay of the surviving WAL bytes reproduces exactly the acked
    // prefix: the snapshot (id 0) plus W1's frame, nothing of W2/W3.
    drop(rc);
    registry.shutdown_dbs();
    drop(db);
    drop(registry);
    let bytes = persisted.lock().unwrap().clone();
    assert_eq!(scan(&bytes).records.len(), 1, "only W1's frame persisted");
    std::fs::write(root.join("lab").join("wal.log"), &bytes).unwrap();
    let cfg = StorageConfig {
        root: root.clone(),
        fsync: FsyncPolicy::Group,
        snapshot_every: 10_000,
    };
    let reg2 = Arc::new(Registry::with_storage(cfg).unwrap());
    let db2 = reg2.get("lab").unwrap();
    assert_eq!(db2.stats().recovery_replayed_fragments(), 1);
    let snap2 = db2.snapshot();
    assert_eq!(
        snap2
            .session()
            .database()
            .display(snap2.vocabulary())
            .to_string(),
        osnap
            .session()
            .database()
            .display(osnap.vocabulary())
            .to_string(),
        "recovery from the faulted WAL diverges from the acked prefix"
    );
    drop(reg2);
    std::fs::remove_dir_all(&root).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE acceptance property: kill at an *arbitrary* WAL byte offset.
    /// Whole frames below the cut are acked writes and must all
    /// survive; the torn frame must vanish; the recovered server must
    /// match the sequential oracle for that exact prefix and serve
    /// warm.
    #[test]
    fn kill_at_any_byte_offset_matches_the_prefix_oracle(
        cut_frac in 0usize..=1000,
    ) {
        // The committed WAL is deterministic; rebuild it per case (the
        // proptest shim runs cases in one process, so a static would
        // also work, but per-case dirs keep the cases independent).
        let root = tempdir("anybyte");
        let wal = committed_wal(&root, FsyncPolicy::Group);
        let cut = wal.len() * cut_frac / 1000;
        let k = scan(&wal[..cut]).records.len();
        let (r2, registry, mut rc) = restart_from(&wal[..cut], "anybyte-cut");
        let db = registry.get("lab").unwrap();
        assert_matches_oracle(&db, &mut rc, k, k as u64);
        // Torn bytes are reported and truncated on disk: a second
        // recovery of the same dir is clean.
        if k >= 1 {
            let Response::Stats(s) = rc.handle_line("STATS") else {
                panic!("expected stats");
            };
            prop_assert_eq!(s.recovery_truncated_bytes, (cut as u64) - scan(&wal[..cut]).valid_len);
        }
        registry.shutdown_dbs();
        drop(registry);
        let cfg = StorageConfig {
            root: r2.clone(),
            fsync: FsyncPolicy::Group,
            snapshot_every: 10_000,
        };
        let reg2 = Arc::new(Registry::with_storage(cfg).unwrap());
        let db2 = reg2.get("lab").unwrap();
        prop_assert_eq!(db2.stats().recovery_replayed_fragments(), k as u64);
        drop(reg2);
        std::fs::remove_dir_all(&r2).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
