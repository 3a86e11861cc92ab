//! The traced run: the first round's stream replayed in-process, in
//! order, with the calls into each layer's public functions timed from
//! here. Nothing inside the program is instrumented; the end-to-end
//! medians come from the untraced TCP rounds that ran just before, so
//! the share of them the layers account for, and the unattributed
//! remainder, can be reported.
//!
//! Three replays:
//! - **runtime**: `Request::parse`, `Conn::handle_line` and
//!   `Response::render` on a durable `Registry` (same fsync policy and
//!   snapshot cadence as the server);
//! - **session/engine**: the same writes applied to a private `Session`
//!   (`push_proper`/`assert_*`, the first `disjunctive_scaffold` after a
//!   write, `freeze`, and after a rebuild the pre-run of every prepared
//!   query) and the same reads through `parse_query_expr_in` +
//!   `to_dnf`, `Engine::prepare` and `Engine::entails_prepared`, with
//!   `counters::snapshot()` deltas and the fired route;
//! - **storage**: `Wal::append` of every write, `Wal::sync`,
//!   `DbDir::write_snapshot`, `DbDir::recover` and
//!   `Registry::with_storage` on the directory the runtime replay left.

use crate::gen::{Kind, Req};
use crate::report::{median, Metric};
use crate::{EndToEnd, Prepared};
use indord_core::atom::OrderRel;
use indord_core::counters;
use indord_core::parse::{parse_database, parse_query_expr_in};
use indord_core::session::Session;
use indord_core::sym::Vocabulary;
use indord_entail::{route, Engine, FiredRoute, PreparedQuery};
use indord_server::durable::StorageConfig;
use indord_server::protocol::{Request, Response};
use indord_server::runtime::{Conn, Registry};
use indord_storage::{snapshot, DbDir, FsyncPolicy};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Snapshot cadence of `indord-serve` (its `--snapshot-every` default).
const SNAPSHOT_EVERY: u64 = 256;
/// Repetitions of the one-shot storage calls.
const STORAGE_REPS: usize = 5;
/// Device fsyncs timed (informational).
const FSYNCS: usize = 32;

pub struct Layers {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

pub fn run(p: &Prepared, e2e: &EndToEnd, run_dir: &Path) -> Result<Layers, String> {
    let order: Vec<&Req> = p.w.rounds[0].iter().collect();
    let root = run_dir.join("trace-data");
    let rt = runtime_replay(p, &order, &root)?;
    let se = session_replay(p, &order)?;
    let st = storage_replay(p, &order, &root, run_dir)?;

    let read_e2e = e2e.latency(Kind::Read, 0.5);
    let write_e2e = e2e.latency(Kind::Write, 0.5);
    let read_acc = median(&rt.accounted_read);
    let write_acc = median(&rt.accounted_write);
    let share = |acc: f64, total: f64| if total > 0.0 { acc / total } else { 0.0 };

    let m = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
        raw: None,
    };
    let route = |r: usize| m(ROUTES[r].1, median(&se.search[r]), "us", se.search[r].len());
    let metrics = vec![
        m(
            "protocol.parse_ns",
            median(&rt.parse_ns),
            "ns",
            rt.parse_ns.len(),
        ),
        m(
            "protocol.render_ns",
            median(&rt.render_ns),
            "ns",
            rt.render_ns.len(),
        ),
        m(
            "core.parse_query_us",
            median(&se.parse_query),
            "us",
            se.parse_query.len(),
        ),
        m(
            "entail.prepare_us",
            median(&se.prepare),
            "us",
            se.prepare.len(),
        ),
        route(0),
        route(1),
        route(2),
        route(3),
        m(
            "entail.prerun_us",
            median(&se.prerun),
            "us",
            se.prerun.len(),
        ),
        m(
            "entail.states_per_read",
            se.states as f64 / se.reads.max(1) as f64,
            "count",
            se.reads,
        ),
        m(
            "entail.pair_hit_ratio",
            se.pair_hits as f64 / (se.pair_hits + se.pair_misses).max(1) as f64,
            "ratio",
            (se.pair_hits + se.pair_misses) as usize,
        ),
        m("session.patch_us", median(&se.patch), "us", se.patch.len()),
        m(
            "session.freeze_us",
            median(&se.freeze),
            "us",
            se.freeze.len(),
        ),
        m(
            "session.rebuild_us",
            median(&se.rebuild),
            "us",
            se.rebuild.len(),
        ),
        m(
            "session.rebuilds_per_write",
            se.rebuild.len() as f64 / se.patch.len().max(1) as f64,
            "count",
            se.patch.len(),
        ),
        m("runtime.read_us", median(&rt.read), "us", rt.read.len()),
        m("runtime.write_us", median(&rt.write), "us", rt.write.len()),
        m(
            "runtime.fragments_per_commit",
            e2e.fragments_per_commit,
            "count",
            1,
        ),
        m(
            "storage.wal_append_us",
            median(&st.wal_append),
            "us",
            st.wal_append.len(),
        ),
        m(
            "storage.wal_bytes_per_write",
            st.wal_bytes as f64 / st.wal_append.len().max(1) as f64,
            "bytes",
            st.wal_append.len(),
        ),
        m(
            "storage.snapshot_write_ms",
            median(&st.snapshot_write),
            "ms",
            st.snapshot_write.len(),
        ),
        m(
            "storage.recover_ms",
            median(&st.recover),
            "ms",
            st.recover.len(),
        ),
        m(
            "durable.replay_ms",
            median(&st.replay),
            "ms",
            st.replay.len(),
        ),
        m("storage.fsync_us", median(&st.fsync), "us", st.fsync.len()),
        m(
            "unattributed_us.read",
            read_e2e - read_acc,
            "us",
            e2e.samples(Kind::Read),
        ),
        m(
            "unattributed_us.write",
            write_e2e - write_acc,
            "us",
            e2e.samples(Kind::Write),
        ),
        m(
            "attributed_share.read",
            share(read_acc, read_e2e),
            "ratio",
            rt.accounted_read.len(),
        ),
        m(
            "attributed_share.write",
            share(write_acc, write_e2e),
            "ratio",
            rt.accounted_write.len(),
        ),
    ];
    let notes = vec![format!(
        "trace e2e read_p50_us={read_e2e} write_p50_us={write_e2e} \
         in-process read_us={read_acc} write_us={write_acc} \
         other_route_reads={}",
        se.other_routes
    )];
    Ok(Layers { metrics, notes })
}

struct RuntimeTimes {
    parse_ns: Vec<f64>,
    render_ns: Vec<f64>,
    read: Vec<f64>,
    write: Vec<f64>,
    /// `handle_line` + `render` per request: what the layers account
    /// for of a request's end-to-end time.
    accounted_read: Vec<f64>,
    accounted_write: Vec<f64>,
}

fn storage_config(root: &Path) -> StorageConfig {
    StorageConfig {
        root: root.to_path_buf(),
        fsync: FsyncPolicy::Os,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

fn expect_ok(conn: &mut Conn, line: &str) -> Result<Response, String> {
    match conn.handle_line(line) {
        Response::Error(e) => Err(format!("in-process `{}`: {e}", crate::serve::clip(line))),
        r => Ok(r),
    }
}

fn runtime_replay(p: &Prepared, order: &[&Req], root: &Path) -> Result<RuntimeTimes, String> {
    let _ = std::fs::remove_dir_all(root);
    let reg = Arc::new(
        Registry::with_storage(storage_config(root)).map_err(|e| format!("registry: {e}"))?,
    );
    let mut conn = Conn::new(Arc::clone(&reg));
    expect_ok(&mut conn, &format!("OPEN {}", p.w.db))?;
    for frag in &p.w.load {
        expect_ok(&mut conn, &format!("FACT {frag}"))?;
    }
    for line in p.w.prepare_lines() {
        expect_ok(&mut conn, &line)?;
    }
    expect_ok(&mut conn, &p.w.probe())?;
    let mut t = RuntimeTimes {
        parse_ns: Vec::with_capacity(order.len()),
        render_ns: Vec::with_capacity(order.len()),
        read: Vec::new(),
        write: Vec::new(),
        accounted_read: Vec::new(),
        accounted_write: Vec::new(),
    };
    for req in order {
        let t0 = Instant::now();
        black_box(Request::parse(black_box(&req.line)).ok());
        t.parse_ns.push(us(t0) * 1e3);
        let t1 = Instant::now();
        let resp = conn.handle_line(&req.line);
        let handle = us(t1);
        if let Response::Error(e) = &resp {
            return Err(format!(
                "in-process `{}`: {e}",
                crate::serve::clip(&req.line)
            ));
        }
        let t2 = Instant::now();
        black_box(resp.render());
        let render = us(t2);
        t.render_ns.push(render * 1e3);
        let (own, acc) = match req.kind {
            Kind::Read => (&mut t.read, &mut t.accounted_read),
            Kind::Write => (&mut t.write, &mut t.accounted_write),
        };
        own.push(handle);
        acc.push(handle + render);
    }
    drop(conn);
    reg.shutdown_dbs();
    Ok(t)
}

/// Route buckets reported, by fired route.
const ROUTES: [(FiredRoute, &str); 4] = [
    (FiredRoute::Seq, "entail.search_us.seq"),
    (FiredRoute::Paths, "entail.search_us.paths"),
    (FiredRoute::Disjunctive, "entail.search_us.disjunctive"),
    (FiredRoute::Ne, "entail.search_us.ne"),
];

#[derive(Default)]
struct SessionTimes {
    parse_query: Vec<f64>,
    prepare: Vec<f64>,
    search: [Vec<f64>; 4],
    other_routes: usize,
    reads: usize,
    states: u64,
    pair_hits: u64,
    pair_misses: u64,
    patch: Vec<f64>,
    freeze: Vec<f64>,
    rebuild: Vec<f64>,
    prerun: Vec<f64>,
}

fn compile(voc: &Vocabulary, text: &str, t: &mut SessionTimes) -> Result<PreparedQuery, String> {
    let t0 = Instant::now();
    let dnf = parse_query_expr_in(voc, text)
        .and_then(|e| e.to_dnf(voc))
        .map_err(|e| format!("query `{text}`: {e}"))?;
    t.parse_query.push(us(t0));
    let t1 = Instant::now();
    let pq = Engine::new(voc)
        .prepare(&dnf)
        .map_err(|e| format!("prepare `{text}`: {e}"))?;
    t.prepare.push(us(t1));
    Ok(pq)
}

fn session_replay(p: &Prepared, order: &[&Req]) -> Result<SessionTimes, String> {
    let mut t = SessionTimes::default();
    let mut voc = Vocabulary::new();
    let db = parse_database(&mut voc, &p.w.load.join("\n")).map_err(|e| format!("load: {e}"))?;
    let mut session = Session::new(db);
    let mut prepared: Vec<Option<PreparedQuery>> = vec![None; p.w.queries.len()];
    for (_, q) in &p.w.prepared {
        prepared[*q] = Some(compile(&voc, &p.w.queries[*q], &mut t)?);
    }
    let warm = |session: &Session, voc: &Vocabulary, prepared: &[Option<PreparedQuery>]| {
        let _ = session.disjunctive_scaffold(voc);
        let eng = Engine::new(voc);
        for pq in prepared.iter().flatten() {
            let _ = eng.entails_prepared(session, pq);
        }
    };
    warm(&session, &voc, &prepared);
    let _ = route::take();
    for req in order {
        match req.kind {
            Kind::Write => {
                let frag = parse_database(&mut voc, req.fragment())
                    .map_err(|e| format!("write `{}`: {e}", req.fragment()))?;
                let t0 = Instant::now();
                for atom in frag.proper_atoms() {
                    session.push_proper(atom.clone());
                }
                for oa in frag.order_atoms() {
                    match oa.rel {
                        OrderRel::Lt => session.assert_lt(oa.lhs, oa.rhs),
                        OrderRel::Le => session.assert_le(oa.lhs, oa.rhs),
                        OrderRel::Ne => session.assert_ne(oa.lhs, oa.rhs),
                    }
                }
                t.patch.push(us(t0));
                let builds = session.stats().scaffold_builds;
                let t1 = Instant::now();
                let _ = session.disjunctive_scaffold(&voc);
                let rebuild = us(t1);
                let rebuilt = session.stats().scaffold_builds > builds;
                if rebuilt {
                    t.rebuild.push(rebuild);
                }
                let t2 = Instant::now();
                black_box(session.freeze());
                t.freeze.push(us(t2));
                if rebuilt {
                    // As the mutator does before publishing a cold
                    // scaffold: pre-run the registry.
                    let t3 = Instant::now();
                    warm(&session, &voc, &prepared);
                    t.prerun.push(us(t3));
                    let _ = route::take();
                }
            }
            Kind::Read => {
                t.reads += 1;
                let before = counters::snapshot();
                for &q in &req.queries {
                    let inline;
                    let pq = if req.inline {
                        inline = compile(&voc, &p.w.queries[q], &mut t)?;
                        &inline
                    } else {
                        prepared[q].as_ref().expect("prepared query")
                    };
                    let eng = Engine::new(&voc);
                    let t0 = Instant::now();
                    let v = eng.entails_prepared(&session, pq);
                    let took = us(t0);
                    black_box(v.map_err(|e| format!("search `{}`: {e}", p.w.queries[q]))?);
                    match route::take().and_then(|r| ROUTES.iter().position(|(x, _)| *x == r)) {
                        Some(i) => t.search[i].push(took),
                        None => t.other_routes += 1,
                    }
                }
                let d = counters::snapshot().delta_since(&before);
                t.states += d.states_expanded;
                t.pair_hits += d.pair_hits;
                t.pair_misses += d.pair_misses;
            }
        }
    }
    Ok(t)
}

struct StorageTimes {
    wal_append: Vec<f64>,
    wal_bytes: u64,
    fsync: Vec<f64>,
    snapshot_write: Vec<f64>,
    recover: Vec<f64>,
    replay: Vec<f64>,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn storage_replay(
    p: &Prepared,
    order: &[&Req],
    root: &Path,
    run_dir: &Path,
) -> Result<StorageTimes, String> {
    // WAL appends of the stream's writes, under the server's policy.
    let scratch = DbDir::open(run_dir.join("trace-wal")).map_err(io_err("wal dir"))?;
    let mut wal = scratch
        .open_wal(FsyncPolicy::Os, 1)
        .map_err(io_err("open wal"))?;
    let mut wal_append = Vec::new();
    for req in order.iter().filter(|r| r.kind == Kind::Write) {
        let t0 = Instant::now();
        wal.append(req.line.as_bytes())
            .map_err(io_err("wal append"))?;
        wal_append.push(us(t0));
    }
    let wal_bytes = wal.counters().bytes;
    // The device: one small record, then an fsync.
    let mut fsync = Vec::with_capacity(FSYNCS);
    for _ in 0..FSYNCS {
        wal.append(b"FACT Note(t0_0);")
            .map_err(io_err("wal append"))?;
        let t0 = Instant::now();
        wal.sync().map_err(io_err("wal sync"))?;
        fsync.push(us(t0));
    }
    drop(wal);

    // Recovery of the directory the runtime replay left behind.
    let dir = DbDir::open(root.join(p.w.db)).map_err(io_err("db dir"))?;
    let mut recover = Vec::with_capacity(STORAGE_REPS);
    let mut replay = Vec::with_capacity(STORAGE_REPS);
    for _ in 0..STORAGE_REPS {
        let t0 = Instant::now();
        black_box(dir.recover().map_err(io_err("recover"))?);
        recover.push(us(t0) / 1e3);
        let t1 = Instant::now();
        let reg = Registry::with_storage(storage_config(root)).map_err(io_err("with_storage"))?;
        replay.push(us(t1) / 1e3);
        reg.shutdown_dbs();
    }

    // A snapshot of the end state, written again and again.
    let reg = Arc::new(Registry::with_storage(storage_config(root)).map_err(io_err("registry"))?);
    let mut conn = Conn::new(Arc::clone(&reg));
    expect_ok(&mut conn, &format!("USE {}", p.w.db))?;
    expect_ok(&mut conn, "FLUSH")?;
    drop(conn);
    reg.shutdown_dbs();
    let loaded = snapshot::load_latest(dir.path())
        .map_err(io_err("load snapshot"))?
        .ok_or("FLUSH left no snapshot")?;
    let mut snapshot_write = Vec::with_capacity(STORAGE_REPS);
    for _ in 0..STORAGE_REPS {
        let t0 = Instant::now();
        scratch
            .write_snapshot(loaded.id, &loaded.payload)
            .map_err(io_err("write snapshot"))?;
        snapshot_write.push(us(t0) / 1e3);
    }
    Ok(StorageTimes {
        wal_append,
        wal_bytes,
        fsync,
        snapshot_write,
        recover,
        replay,
    })
}
