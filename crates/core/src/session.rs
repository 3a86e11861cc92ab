//! Sessions: a [`Database`] plus lazily-computed, mutation-invalidated
//! derived views.
//!
//! Every entailment algorithm of the paper consumes not the raw database
//! but one of its derived forms: the N1/N2-normalized [`NormalDatabase`],
//! the labelled-dag [`MonadicDatabase`] (§4), and the per-object predicate
//! profiles that decide object parts of queries. Re-deriving those on
//! every query is pure waste under repeated-query traffic, so a
//! [`Session`] owns the database and caches each view on first use:
//!
//! * [`Session::normal`] — the normalized database (rules N1/N2,
//!   consistency check, constant → vertex mapping);
//! * [`Session::monadic`] — the labelled dag, when every stored predicate
//!   is monadic over the order sort;
//! * [`Session::object_profiles`] — for each object constant, the set of
//!   monadic predicates asserted of it (evaluates `ObjectPart`s);
//! * [`Session::disjunctive_scaffold`] — the
//!   [`DisjunctiveScaffold`](crate::scaffold::DisjunctiveScaffold): the
//!   Theorem 5.3 search tables that depend on the database but not the
//!   query (reachability closure, topological order, the `min(D)`
//!   antichain, and the growing interned-antichain / `D(S,T)` pair
//!   tables). Repeated disjunctive queries against one session reuse the
//!   pairs explored by earlier queries instead of re-deriving them.
//!
//! ## The invalidation contract
//!
//! Mutations go through the session ([`Session::push_proper`],
//! [`Session::assert_lt`], …) and invalidate exactly what they must —
//! including the scaffold layer, which survives every in-place write:
//!
//! * **proper fact over known order constants** — the normalized and
//!   monadic views are patched in place, and the scaffold's cached
//!   `D(S,T)` label unions are patched too
//!   ([`DisjunctiveScaffold::patch_label_insert`]): nothing is dropped;
//! * **acyclic order edge over known, distinct vertices** — the cached
//!   graphs gain the edge in place, the scaffold's reachability closure
//!   is updated incrementally, its topological order repaired locally
//!   (Pearce–Kelly), and only the `(S, T)` pairs whose up-sets contain
//!   the edge source are evicted
//!   ([`DisjunctiveScaffold::patch_order_edge`]): the scaffold object
//!   itself — closure, topo order, antichain arena, and every unaffected
//!   pair — stays warm;
//! * **`!=` over known vertices** — the constraint is appended to the
//!   cached views and the scaffold's memoized blocked-commit bits are
//!   marked stale for lazy recomputation
//!   ([`DisjunctiveScaffold::note_ne_mutation`]): nothing is dropped;
//! * **everything else** — a fresh order constant, an n-ary fact (the
//!   monadic view no longer applies), a `<=` edge closing a cycle (N1
//!   merges vertices), a `<` edge closing a cycle (inconsistency), or a
//!   bulk [`Session::extend`]/[`Session::assert_chain`] — drops the
//!   affected caches for lazy recomputation. These are the *only* cases
//!   that still lose the scaffold.
//!
//! The [`Session::epoch`] counter increments on every mutation, so
//! external caches keyed on a session can detect staleness.
//! [`Session::with_max_pairs`] bounds the scaffold's pair table for
//! long-lived sessions.
//!
//! Caches live in [`std::sync::OnceLock`]s: a `&Session` can be shared
//! across threads serving the same (read-only) workload.
//!
//! ## Sharing rules (MVCC snapshots)
//!
//! Two clone operations with opposite contracts:
//!
//! * [`Clone`] starts **cold** — it exists for rollback snapshots and
//!   other clones that may be mutated independently, so the two sessions
//!   must not share cache state;
//! * [`Session::freeze`] is **warm** — it exists for immutable read
//!   snapshots (the server's MVCC publication path): cached views are
//!   carried over and the scaffold is *shared* through an `Arc` rather
//!   than deep-copied or rebuilt.
//!
//! The scaffold is the one cached view that later queries mutate (its
//! pair table grows under its own mutex — fine to share) **and** that
//! writes patch in place (not fine to share). The write paths therefore
//! go through a copy-on-write gate: if the cached `Arc` is shared with
//! frozen snapshots, the session first splits off a private copy
//! ([`DisjunctiveScaffold::cow_clone`] — `try_lock` on the pair table,
//! so a reader's in-flight search can never block the writer) and
//! patches that. Snapshots keep the exact tables they were published
//! with, forever.
//!
//! A session must be used with a single [`Vocabulary`]: the first call to
//! [`Session::monadic`] fixes the vocabulary whose signatures the cached
//! view was built against.

use crate::atom::{OrderRel, ProperAtom, Term};
use crate::bitset::PredSet;
use crate::database::{Database, NormalDatabase};
use crate::error::Result;
use crate::fxhash::FxHashMap;
use crate::monadic::MonadicDatabase;
use crate::ordgraph::OrderGraph;
use crate::scaffold::{DisjunctiveScaffold, SubScaffold};
use crate::sym::{ObjSym, OrdSym, PredSym, Vocabulary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A snapshot of a session's maintenance counters — the observability
/// surface behind the server's `STATS` reply and the read-write bench
/// assertions. All counters start at zero on a fresh (or cloned)
/// session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Mutation counter (same value as [`Session::epoch`]).
    pub epoch: u64,
    /// How many times the disjunctive scaffold was built from scratch.
    /// `1` on a warm session; every increment beyond the first means a
    /// write dropped the scaffold and a later read paid a full rebuild.
    pub scaffold_builds: u64,
    /// Writes absorbed by patching the cached views in place (label
    /// inserts, acyclic order edges, known-vertex `!=`) — the
    /// incremental-maintenance fast path.
    pub in_place_patches: u64,
    /// Writes that dropped a *warm* cache for lazy recomputation (fresh
    /// constants, n-ary facts, cycle-closing edges, bulk mutations).
    /// Cold writes — nothing computed yet, so nothing lost — are not
    /// counted.
    pub cache_drops: u64,
    /// Pairs evicted from the scaffold's memo table, by the
    /// [`Session::with_max_pairs`] LRU bound or by selective order-edge
    /// invalidation (0 while the scaffold is cold or its table is held
    /// by a concurrent search).
    pub pair_evictions: u64,
    /// Concurrent searches that lost the shared pair-table lock race
    /// and ran on a private table (see
    /// [`DisjunctiveScaffold::contention_fallbacks`]).
    pub contention_fallbacks: u64,
}

impl SessionStats {
    /// Scaffold rebuilds beyond the initial build: nonzero exactly when
    /// some write forced a drop-and-rebuild cycle.
    pub fn scaffold_rebuilds(&self) -> u64 {
        self.scaffold_builds.saturating_sub(1)
    }
}

/// Three-way answer to "do these two sessions share this view?" —
/// returned by [`Session::shares_scaffold_with`] and
/// [`Session::sharing_with`]. A plain `bool` cannot distinguish "warm
/// but distinct" from "nothing computed", which made sharing assertions
/// pass vacuously when warmup silently failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Both sides are warm and hold the same object (`Arc::ptr_eq`).
    Shared,
    /// Both sides are warm but hold distinct objects (a write unshared).
    Unshared,
    /// At least one side never computed the view — the comparison is
    /// vacuous, and assertions built on it prove nothing.
    Cold,
}

impl Sharing {
    fn of<T>(a: Option<&Arc<T>>, b: Option<&Arc<T>>) -> Sharing {
        match (a, b) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => Sharing::Shared,
            (Some(_), Some(_)) => Sharing::Unshared,
            _ => Sharing::Cold,
        }
    }

    /// True exactly for [`Sharing::Shared`].
    pub fn is_shared(self) -> bool {
        self == Sharing::Shared
    }
}

/// Per-view sharing answers between a session and (typically) one of its
/// frozen snapshots — see [`Session::sharing_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingReport {
    /// The normalized view ([`Session::normal`]).
    pub normal: Sharing,
    /// The monadic labelled-dag view ([`Session::monadic`]).
    pub monadic: Sharing,
    /// The object-profile table ([`Session::object_profiles`]).
    pub profiles: Sharing,
    /// The disjunctive scaffold ([`Session::disjunctive_scaffold`]).
    pub scaffold: Sharing,
    /// The order dag *inside* the normalized view: stays shared across
    /// label/`!=`/fact writes even when the views themselves unshare.
    pub order_graph: Sharing,
    /// The constant→vertex table inside the normalized view: stays
    /// shared across every non-structural write.
    pub vertex_map: Sharing,
}

/// An empty dag, used to momentarily retire the monadic view's dag alias
/// while the order-edge patch runs `Arc::make_mut` on the normal side
/// (see `Session::try_patch_order_edge`).
fn placeholder_graph() -> OrderGraph {
    OrderGraph::from_dag_edges(0, &[]).expect("the empty dag is consistent")
}

/// Per-object predicate profiles, derived from the definite part of the
/// database (§4: object parts of queries are decided against these).
#[derive(Debug, Clone, Default)]
struct ObjectProfiles {
    index_of: FxHashMap<ObjSym, usize>,
    sets: Vec<PredSet>,
}

impl ObjectProfiles {
    fn from_normal(nd: &NormalDatabase) -> Self {
        let mut profiles = ObjectProfiles::default();
        for a in nd.definite_atoms() {
            if let (Some(Term::Obj(o)), 1) = (a.args.first(), a.args.len()) {
                profiles.insert(a.pred, *o);
            }
        }
        profiles
    }

    fn insert(&mut self, pred: PredSym, obj: ObjSym) {
        let n = self.sets.len();
        let i = *self.index_of.entry(obj).or_insert(n);
        if i == self.sets.len() {
            self.sets.push(PredSet::new());
        }
        self.sets[i].insert(pred);
    }
}

/// Computes the per-object predicate profiles of a normalized database's
/// definite part — the structure [`Session::object_profiles`] caches.
/// One-shot callers (the unprepared compatibility path) use this
/// directly.
pub fn object_profiles_of(nd: &NormalDatabase) -> Vec<PredSet> {
    ObjectProfiles::from_normal(nd).sets
}

/// Fingerprint of the vocabulary prefix a monadic view was built
/// against: predicate count plus a hash of names and signatures. Later
/// calls may use a *grown* vocabulary (new predicates cannot occur in
/// the already-stored facts) but never a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VocStamp {
    preds: usize,
    hash: u64,
}

impl VocStamp {
    fn of(voc: &Vocabulary) -> Self {
        VocStamp {
            preds: voc.pred_count(),
            hash: Self::hash_prefix(voc, voc.pred_count()),
        }
    }

    fn hash_prefix(voc: &Vocabulary, preds: usize) -> u64 {
        // FNV-1a over predicate names and argument sorts.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for i in 0..preds {
            let p = PredSym::from_index(i);
            for b in voc.pred_name(p).bytes() {
                eat(b);
            }
            eat(0xFF);
            for &s in &voc.signature(p).arg_sorts {
                eat(s as u8);
            }
            eat(0xFE);
        }
        h
    }

    /// Re-hashes the stamped prefix on every call: vocabularies are tiny
    /// (tens of bytes of predicate names), so this is nanoseconds against
    /// the microseconds of an evaluation, and anything cheaper would have
    /// to assume two distinct vocabularies with equal predicate counts
    /// are the same — the exact silent-wrong-answer case the stamp exists
    /// to catch.
    fn accepts(&self, voc: &Vocabulary) -> bool {
        voc.pred_count() >= self.preds && Self::hash_prefix(voc, self.preds) == self.hash
    }
}

/// A database plus its cached derived views. See the module docs.
#[derive(Debug, Default)]
pub struct Session {
    db: Database,
    epoch: u64,
    /// Bound on the scaffold's memoized pair table (`None` = unbounded).
    max_pairs: Option<usize>,
    /// Every cached view sits behind an `Arc`: [`Session::freeze`] clones
    /// the `OnceLock`s, which is one reference-count bump per warm view,
    /// and the write paths unshare only the view they touch
    /// (`Arc::make_mut`) — the inner components (the
    /// [`crate::chunked::ChunkedLog`] fact store, the shared order dag,
    /// the vertex tables) are themselves
    /// structurally shared, so even that unsharing is O(changed).
    normal: OnceLock<Result<Arc<NormalDatabase>>>,
    monadic: OnceLock<Result<Arc<MonadicDatabase>>>,
    voc_stamp: OnceLock<VocStamp>,
    profiles: OnceLock<Arc<ObjectProfiles>>,
    /// The scaffold is held through an `Arc` so a frozen snapshot
    /// ([`Session::freeze`]) shares it instead of rebuilding; mutation
    /// paths split off a private copy first when it is shared (see
    /// [`Session::scaffold_mut`]).
    scaffold: OnceLock<Arc<DisjunctiveScaffold>>,
    /// Lifetime count of scaffold builds (see [`SessionStats`]).
    scaffold_builds: AtomicU64,
    /// Lifetime count of in-place write patches (see [`SessionStats`]).
    in_place_patches: AtomicU64,
    /// Lifetime count of cache-dropping writes (see [`SessionStats`]).
    cache_drops: AtomicU64,
}

impl Clone for Session {
    fn clone(&self) -> Self {
        // Cached views are cheap to rebuild relative to cloning; start the
        // clone cold so the two sessions never share stale state.
        Session {
            db: self.db.clone(),
            epoch: self.epoch,
            max_pairs: self.max_pairs,
            ..Session::default()
        }
    }
}

impl From<Database> for Session {
    fn from(db: Database) -> Self {
        Session::new(db)
    }
}

impl Session {
    /// Wraps a database in a fresh (cold-cache) session.
    pub fn new(db: Database) -> Self {
        Session {
            db,
            ..Session::default()
        }
    }

    /// Bounds the scaffold's shared `(S, T)` pair table to `cap` memoized
    /// entries (builder-style; default unbounded). Cold entries are
    /// evicted LRU-ish between search runs and recompute transparently on
    /// next use — the safety knob for long-lived sessions answering many
    /// *distinct* queries over wide databases.
    pub fn with_max_pairs(mut self, cap: usize) -> Self {
        self.max_pairs = Some(cap);
        // An already-built scaffold was configured unbounded; rebuild it
        // lazily under the new bound.
        self.scaffold.take();
        self
    }

    /// The underlying database (read-only; mutate through the session).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Unwraps back into the database, dropping the caches.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Mutation counter: increments on every insertion.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of atoms (`|D|`).
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// True when the database has no atoms.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    // ------------------------------------------------------------------
    // Cached views
    // ------------------------------------------------------------------

    /// The normalized database, computing and caching it on first use.
    pub fn normal(&self) -> Result<&NormalDatabase> {
        match self
            .normal
            .get_or_init(|| self.db.normalize().map(Arc::new))
        {
            Ok(nd) => Ok(&**nd),
            Err(e) => Err(e.clone()),
        }
    }

    /// The labelled-dag monadic view, computing and caching it on first
    /// use. Errors if normalization fails, a stored predicate is not
    /// monadic, or `voc` is not the vocabulary (or a grown version of
    /// the vocabulary) the view was first built against.
    pub fn monadic(&self, voc: &Vocabulary) -> Result<&MonadicDatabase> {
        let nd = self.normal()?;
        let stamp = self.voc_stamp.get_or_init(|| VocStamp::of(voc));
        if !stamp.accepts(voc) {
            return Err(crate::error::CoreError::VocabularyMismatch);
        }
        match self
            .monadic
            .get_or_init(|| MonadicDatabase::from_normal(voc, nd).map(Arc::new))
        {
            Ok(mdb) => Ok(&**mdb),
            Err(e) => Err(e.clone()),
        }
    }

    /// The Theorem 5.3 search scaffold of the monadic view, computing and
    /// caching it on first use: reachability closure, topological order,
    /// the initial antichain, and the shared interned-antichain `D(S,T)`
    /// pair tables that successive disjunctive searches grow in place.
    /// Errors exactly when [`Session::monadic`] does.
    pub fn disjunctive_scaffold(&self, voc: &Vocabulary) -> Result<&DisjunctiveScaffold> {
        let mdb = self.monadic(voc)?;
        Ok(self.scaffold.get_or_init(|| {
            self.scaffold_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(DisjunctiveScaffold::new(mdb).with_max_pairs(self.max_pairs))
        }))
    }

    /// Unique (mutable) access to the warm scaffold, if any — the
    /// copy-on-write gate of the snapshot-sharing story. When the cached
    /// `Arc` is also held by frozen snapshots, the scaffold is cloned
    /// ([`DisjunctiveScaffold::cow_clone`]) so the snapshots keep their
    /// immutable view while this session patches its own copy; when the
    /// session is the sole owner, this is plain in-place access.
    fn scaffold_mut(&mut self) -> Option<&mut DisjunctiveScaffold> {
        let arc = self.scaffold.get_mut()?;
        if Arc::get_mut(arc).is_none() {
            *arc = Arc::new(arc.cow_clone());
        }
        Some(Arc::get_mut(arc).expect("freshly cloned Arc is unique"))
    }

    /// The §7 sub-scaffold of the session's database: the cached
    /// disjunctive scaffold projected onto the region of models that
    /// separate the database's `!=` pairs (the identity view for
    /// `[<,<=]` databases). The view is cached by construction — it is
    /// two words, while the database-sized search state (reachability,
    /// arena, `D(S,T)` and blocked-commit tables) lives in the shared
    /// parent scaffold — so every expansion of a prepared `!=` query
    /// evaluated against this session hits it warm. Follows the same
    /// mutation-invalidation discipline as
    /// [`Session::disjunctive_scaffold`].
    pub fn sub_scaffold(&self, voc: &Vocabulary) -> Result<SubScaffold<'_>> {
        let mdb = self.monadic(voc)?;
        Ok(SubScaffold::project(self.disjunctive_scaffold(voc)?, mdb))
    }

    /// Predicate profiles of the object constants in the definite part of
    /// the database, computing and caching them on first use.
    pub fn object_profiles(&self) -> Result<&[PredSet]> {
        let nd = self.normal()?;
        Ok(&self
            .profiles
            .get_or_init(|| Arc::new(ObjectProfiles::from_normal(nd)))
            .sets)
    }

    /// True when [`Session::normal`] is already cached (test/observability
    /// hook: a hot session performs no re-normalization).
    pub fn is_warm(&self) -> bool {
        matches!(self.normal.get(), Some(Ok(_)))
    }

    /// A **warm** clone for snapshot publication: where [`Clone`]
    /// deliberately starts cold (two live sessions must never share
    /// cache state they both mutate), `freeze` is for clones that will
    /// never be mutated again — MVCC read snapshots. Every computed view
    /// carries over **by reference**: the normalized and monadic views,
    /// the object profiles, and the scaffold are all shared through
    /// their `Arc`s (one reference-count bump each), and the database's
    /// fact logs share every sealed chunk
    /// ([`crate::chunked::ChunkedLog`]) — a freeze copies only the
    /// unsealed log tails and the counters, O(changed) regardless of
    /// `|D|`. The maintenance counters copy their current values so
    /// `STATS` served off a snapshot reports the writer's history.
    /// The owning session's next mutation sees the shared `Arc`s and
    /// splits off a private copy of exactly the views it touches
    /// (`Arc::make_mut` copy-on-write), so the frozen snapshot is
    /// immutable by construction and untouched views stay shared
    /// forever (asserted structurally by [`Session::sharing_with`]).
    pub fn freeze(&self) -> Session {
        fn copied<T: Clone>(src: &OnceLock<T>) -> OnceLock<T> {
            let dst = OnceLock::new();
            if let Some(v) = src.get() {
                let _ = dst.set(v.clone());
            }
            dst
        }
        Session {
            db: self.db.clone(),
            epoch: self.epoch,
            max_pairs: self.max_pairs,
            normal: copied(&self.normal),
            monadic: copied(&self.monadic),
            voc_stamp: copied(&self.voc_stamp),
            profiles: copied(&self.profiles),
            scaffold: copied(&self.scaffold),
            scaffold_builds: AtomicU64::new(self.scaffold_builds.load(Ordering::Relaxed)),
            in_place_patches: AtomicU64::new(self.in_place_patches.load(Ordering::Relaxed)),
            cache_drops: AtomicU64::new(self.cache_drops.load(Ordering::Relaxed)),
        }
    }

    /// Whether this session's warm scaffold is the same shared object as
    /// `other`'s (observability hook for the snapshot-sharing tests).
    ///
    /// The answer is three-way on purpose: a `bool` would conflate
    /// "both warm but distinct" with "never computed", letting sharing
    /// *and* unsharing assertions pass vacuously when warmup silently
    /// failed. Callers asserting sharing state must demand
    /// [`Sharing::Shared`] / [`Sharing::Unshared`] explicitly;
    /// [`Sharing::Cold`] always means the assertion proved nothing.
    pub fn shares_scaffold_with(&self, other: &Session) -> Sharing {
        Sharing::of(self.scaffold.get(), other.scaffold.get())
    }

    /// Per-view structural-sharing report against `other` (typically a
    /// frozen snapshot of this session): which `Arc`-held views — and
    /// which *inner* components, the order dag and the constant→vertex
    /// table — are still the same shared objects. This is how the
    /// sharing proptests pin O(changed) behavior structurally: after a
    /// write, exactly the touched views may be [`Sharing::Unshared`];
    /// everything else must still be [`Sharing::Shared`].
    pub fn sharing_with(&self, other: &Session) -> SharingReport {
        fn warm<T>(r: Option<&Result<Arc<T>>>) -> Option<&Arc<T>> {
            match r {
                Some(Ok(a)) => Some(a),
                _ => None,
            }
        }
        let (nd_a, nd_b) = (warm(self.normal.get()), warm(other.normal.get()));
        let (md_a, md_b) = (warm(self.monadic.get()), warm(other.monadic.get()));
        SharingReport {
            normal: Sharing::of(nd_a, nd_b),
            monadic: Sharing::of(md_a, md_b),
            profiles: Sharing::of(self.profiles.get(), other.profiles.get()),
            scaffold: self.shares_scaffold_with(other),
            order_graph: Sharing::of(nd_a.map(|n| &n.graph), nd_b.map(|n| &n.graph)),
            vertex_map: Sharing::of(nd_a.map(|n| &n.vertex_of), nd_b.map(|n| &n.vertex_of)),
        }
    }

    /// Carries another session's lifetime maintenance counters into
    /// this one. Used on rollback snapshots (e.g. a serving layer
    /// rejecting a poisoning write): taken *before* the apply, the
    /// snapshot preserves the pre-write counter values so a rolled-back
    /// fragment contributes nothing to the observability surface.
    /// Scaffold-level counters (pair evictions, contention fallbacks)
    /// live in the scaffold object itself and restart with it.
    pub fn adopt_counters(&mut self, other: &Session) {
        self.scaffold_builds.store(
            other.scaffold_builds.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.in_place_patches.store(
            other.in_place_patches.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.cache_drops
            .store(other.cache_drops.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Snapshot of the session's maintenance counters: scaffold builds
    /// vs in-place write patches vs cache drops, plus the warm
    /// scaffold's pair-eviction and contention-fallback counts. The
    /// observability surface the serving layer's `STATS` reply reads.
    pub fn stats(&self) -> SessionStats {
        let (pair_evictions, contention_fallbacks) = match self.scaffold.get() {
            Some(sc) => (sc.pair_evictions(), sc.contention_fallbacks()),
            None => (0, 0),
        };
        SessionStats {
            epoch: self.epoch,
            scaffold_builds: self.scaffold_builds.load(Ordering::Relaxed),
            in_place_patches: self.in_place_patches.load(Ordering::Relaxed),
            cache_drops: self.cache_drops.load(Ordering::Relaxed),
            pair_evictions,
            contention_fallbacks,
        }
    }

    // ------------------------------------------------------------------
    // Mutation (incremental where the order dag is unchanged)
    // ------------------------------------------------------------------

    /// Adds a proper fact (validated against the vocabulary).
    pub fn insert_fact(&mut self, voc: &Vocabulary, pred: PredSym, args: Vec<Term>) -> Result<()> {
        self.push_proper(ProperAtom::new(voc, pred, args)?);
        Ok(())
    }

    /// Adds an already-validated proper fact.
    ///
    /// When the atom's order arguments are all already mapped to dag
    /// vertices, the cached views are updated in place; otherwise (a fresh
    /// order constant appears) they are dropped and recomputed lazily.
    pub fn push_proper(&mut self, atom: ProperAtom) {
        self.epoch += 1;
        let incremental = match self.normal.get() {
            Some(Ok(nd)) => atom.order_args().all(|u| nd.vertex_of.contains_key(&u)),
            _ => false,
        };
        if !incremental {
            self.invalidate_all();
            self.db.push_proper(atom);
            return;
        }

        // The order dag is untouched: patch each computed view. A 1-ary
        // atom is monadic-order or monadic-object exactly by the sort of
        // its argument (construction validated it against the signature).
        match (atom.args.first(), atom.args.len()) {
            (Some(Term::Ord(u)), 1) => {
                self.in_place_patches.fetch_add(1, Ordering::Relaxed);
                let mut vertex = None;
                if let Some(Ok(mdb)) = self.monadic.get_mut() {
                    let v = match self.normal.get() {
                        Some(Ok(nd)) => nd.vertex_of[u],
                        _ => unreachable!("incremental implies a warm normal cache"),
                    };
                    // Unshare only the monadic view (snapshots keep the
                    // frozen labels); the dag `Arc` inside it stays
                    // shared — a label insert never touches the graph.
                    Arc::make_mut(mdb).labels[v].insert(atom.pred);
                    vertex = Some(v);
                }
                // The scaffold's D(S,T) tables cache label unions, which
                // this insert changes — patch them in place (a label-only
                // insert affects nothing else the scaffold memoizes).
                if let Some(v) = vertex {
                    if let Some(sc) = self.scaffold_mut() {
                        sc.patch_label_insert(v, atom.pred);
                    }
                }
            }
            (Some(Term::Obj(o)), 1) => {
                // Definite monadic-object fact: the monadic view skips
                // these (§4 split), only the profiles change — vertex
                // labels are untouched, so the scaffold stays valid.
                self.in_place_patches.fetch_add(1, Ordering::Relaxed);
                if let Some(profiles) = self.profiles.get_mut() {
                    Arc::make_mut(profiles).insert(atom.pred, *o);
                }
            }
            _ => {
                // An n-ary fact: the monadic view (if any) no longer
                // matches the database — it only exists for monadic ones.
                // The normal view still patches in place, but dropping a
                // warm monadic view/scaffold is a cache drop, not an
                // absorbed write — count it as what it costs.
                if self.monadic.get().is_some() || self.scaffold.get().is_some() {
                    self.cache_drops.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.in_place_patches.fetch_add(1, Ordering::Relaxed);
                }
                self.monadic.take();
                self.scaffold.take();
            }
        }
        if let Some(Ok(nd)) = self.normal.get_mut() {
            // Unshares the normalized *view* struct only: the proper log
            // shares its sealed chunks, and the dag/vertex tables are
            // `Arc` bumps — O(changed) even right after a freeze.
            Arc::make_mut(nd).proper.push(atom.clone());
        }
        self.db.push_proper(atom);
    }

    /// Adds `u < v`. When both constants are already dag vertices and the
    /// edge closes no cycle, every cached view *including the scaffold*
    /// is patched in place (incremental closure update, local topo-order
    /// repair, selective pair eviction); otherwise every cache is
    /// invalidated.
    pub fn assert_lt(&mut self, u: OrdSym, v: OrdSym) {
        self.insert_order_edge(u, v, OrderRel::Lt);
    }

    /// Adds `u <= v`, with the same incremental patching as
    /// [`Session::assert_lt`] (a cycle-closing `<=` triggers an N1 merge,
    /// which is structural — that case takes the invalidating path).
    pub fn assert_le(&mut self, u: OrdSym, v: OrdSym) {
        self.insert_order_edge(u, v, OrderRel::Le);
    }

    fn insert_order_edge(&mut self, u: OrdSym, v: OrdSym, rel: OrderRel) {
        self.epoch += 1;
        if self.try_patch_order_edge(u, v, rel) {
            self.in_place_patches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.invalidate_all();
        }
        match rel {
            OrderRel::Lt => self.db.assert_lt(u, v),
            OrderRel::Le => self.db.assert_le(u, v),
            OrderRel::Ne => unreachable!("!= goes through assert_ne"),
        }
    }

    /// In-place insertion of an order edge into the warm views: possible
    /// exactly when the normalized view is cached, both endpoints are
    /// known vertices, and the edge closes no cycle (a cycle means an N1
    /// re-merge under `<=` or an inconsistency under `<`, both
    /// structural). The normalized and monadic graphs gain the edge in
    /// place, and the scaffold — when warm — is patched rather than
    /// dropped: its reachability closure is updated incrementally in the
    /// same motion as the monadic graph edge
    /// ([`crate::ordgraph::OrderGraph::insert_dag_edge_tracked`]), then
    /// [`DisjunctiveScaffold::patch_order_edge`] repairs the topological
    /// order locally and evicts only the affected `(S, T)` pairs.
    /// Returns `false` when the invalidating slow path must run instead.
    fn try_patch_order_edge(&mut self, u: OrdSym, v: OrdSym, rel: OrderRel) -> bool {
        let Some(Ok(nd)) = self.normal.get() else {
            return false;
        };
        let (Some(&cu), Some(&cv)) = (nd.vertex_of.get(&u), nd.vertex_of.get(&v)) else {
            return false;
        };
        if cu == cv {
            // Both constants sit in one N1 class: `u <= v` is discharged
            // by N2 (nothing changes); `u < v` makes the database
            // inconsistent — surface that through renormalization.
            return rel == OrderRel::Le;
        }
        if nd.graph.reaches(cv, cu) {
            return false;
        }
        // Take the scaffold out for the patch pass, unsharing it first:
        // frozen snapshots holding the same `Arc` must keep seeing the
        // pre-write tables.
        let mut scaffold = self
            .scaffold
            .take()
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|shared| shared.cow_clone()));
        // Split borrows: the two view `OnceLock`s are distinct fields.
        let Session {
            normal, monadic, ..
        } = self;
        let Some(Ok(nd)) = normal.get_mut() else {
            unreachable!("warmth checked above");
        };
        let nd = Arc::make_mut(nd);
        match monadic.get_mut() {
            Some(Ok(mdb)) => {
                let mdb = Arc::make_mut(mdb);
                // Both views alias one dag `Arc` by construction. Retire
                // the monadic alias first, so `make_mut` on the normal
                // side clones the graph only when frozen snapshots
                // actually hold it — then patch the single graph once
                // and re-alias. (The `ptr_eq` check is defensive; the
                // alias invariant holds on every session-built view.)
                let aliased = Arc::ptr_eq(&nd.graph, &mdb.graph);
                if aliased {
                    mdb.graph = Arc::new(placeholder_graph());
                }
                let tracked = {
                    let g = Arc::make_mut(&mut nd.graph);
                    match &mut scaffold {
                        Some(sc) => {
                            // Patch the graph and the scaffold's closure
                            // together, then finish the scaffold-side
                            // maintenance (topo repair + selective pair
                            // eviction) once the alias is restored.
                            Some(g.insert_dag_edge_tracked(cu, cv, rel, sc.reach_mut()))
                        }
                        None => {
                            g.insert_dag_edge(cu, cv, rel);
                            None
                        }
                    }
                };
                if aliased {
                    mdb.graph = Arc::clone(&nd.graph);
                } else {
                    Arc::make_mut(&mut mdb.graph).insert_dag_edge(cu, cv, rel);
                }
                if let (Some(sc), Some((outcome, changed))) = (&mut scaffold, tracked) {
                    sc.patch_order_edge(mdb, cu, cv, outcome, &changed);
                }
            }
            _ => {
                Arc::make_mut(&mut nd.graph).insert_dag_edge(cu, cv, rel);
                // No monadic view means no scaffold to keep.
                scaffold = None;
            }
        }
        if let Some(sc) = scaffold {
            let _ = self.scaffold.set(Arc::new(sc));
        }
        true
    }

    /// Adds `u != v` (§7). When both constants are already known dag
    /// vertices, the cached views gain the constraint in place and the
    /// scaffold survives — its memoized blocked-commit bits resync lazily
    /// ([`DisjunctiveScaffold::note_ne_mutation`]); a `!=` over a fresh
    /// constant drops the caches.
    pub fn assert_ne(&mut self, u: OrdSym, v: OrdSym) {
        self.epoch += 1;
        if self.try_patch_ne(u, v) {
            self.in_place_patches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.invalidate_all();
        }
        self.db.assert_ne(u, v);
    }

    /// In-place `!=` insert: possible when the normalized view is warm
    /// and both constants are known vertices (a contradictory pair
    /// `u != u` is representable — the engines check for it). Mirrors
    /// exactly what renormalization would produce: the pair of N1-class
    /// vertices appended to the `ne` lists.
    fn try_patch_ne(&mut self, u: OrdSym, v: OrdSym) -> bool {
        let Some(Ok(nd)) = self.normal.get() else {
            return false;
        };
        let (Some(&cu), Some(&cv)) = (nd.vertex_of.get(&u), nd.vertex_of.get(&v)) else {
            return false;
        };
        if let Some(Ok(nd)) = self.normal.get_mut() {
            // CoW-unshare just the view structs; the dag and vertex
            // tables inside stay shared with any frozen snapshots.
            Arc::make_mut(nd).ne.push((cu, cv));
        }
        if let Some(Ok(mdb)) = self.monadic.get_mut() {
            Arc::make_mut(mdb).ne.push((cu, cv));
        }
        if let Some(sc) = self.scaffold_mut() {
            sc.note_ne_mutation();
        }
        true
    }

    /// Adds a chain of order atoms with one relation, dropping the caches.
    pub fn assert_chain(&mut self, rel: OrderRel, chain: &[OrdSym]) {
        self.mutate_order(|db| db.assert_chain(rel, chain));
    }

    /// Merges another database in, dropping the caches.
    pub fn extend(&mut self, other: &Database) {
        self.mutate_order(|db| db.extend(other));
    }

    fn mutate_order(&mut self, f: impl FnOnce(&mut Database)) {
        self.epoch += 1;
        self.invalidate_all();
        f(&mut self.db);
    }

    fn invalidate_all(&mut self) {
        // Count only drops of a genuinely warm cache: a write-first
        // workload on a cold session has nothing to lose, and reporting
        // it as a drop would misread as rebuild churn in `stats()`.
        // (`normal` is the root view — nothing else can be warm without
        // it.)
        if self.normal.get().is_some() {
            self.cache_drops.fetch_add(1, Ordering::Relaxed);
        }
        self.normal.take();
        self.monadic.take();
        self.scaffold.take();
        // The vocabulary stamp deliberately survives invalidation:
        // mutations change the stored atoms, never the meaning of the
        // already-interned symbols, and dropping it would silently
        // re-open the mismatch guard after every insertion.
        self.profiles.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_database;

    #[test]
    fn caches_warm_lazily_and_survive_reads() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let s = Session::new(db);
        assert!(!s.is_warm());
        let n1 = s.normal().unwrap().graph.len();
        assert!(s.is_warm());
        let n2 = s.normal().unwrap().graph.len();
        assert_eq!(n1, n2);
        assert_eq!(s.monadic(&voc).unwrap().len(), 2);
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn acyclic_order_edge_patches_in_place() {
        // Regression test for over-invalidation: an acyclic order-edge
        // insert over known vertices must keep the normalized and
        // monadic views warm (patched in place) — and, since the
        // incremental-maintenance work, the scaffold layer too.
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); pred Q(ord); P(u); Q(v);").unwrap();
        let mut s = Session::new(db);
        assert_eq!(s.normal().unwrap().width(), 2);
        s.disjunctive_scaffold(&voc).unwrap();
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        s.assert_lt(u, v);
        assert!(s.is_warm(), "acyclic edge insert must not renormalize");
        assert!(
            s.scaffold.get().is_some(),
            "the scaffold must be patched in place, not dropped"
        );
        s.scaffold
            .get()
            .unwrap()
            .validate(s.monadic(&voc).unwrap())
            .expect("patched scaffold matches fresh recomputation");
        assert_eq!(s.normal().unwrap().width(), 1);
        assert_eq!(s.epoch(), 1);
        // The patched views match a cold recomputation exactly.
        let fresh = Session::new(s.database().clone());
        assert_eq!(fresh.normal().unwrap().graph, s.normal().unwrap().graph);
        assert_eq!(fresh.monadic(&voc).unwrap(), s.monadic(&voc).unwrap());
        // A second <= edge (still acyclic) also patches; the derived
        // strongest-edge dedup matches normalization.
        s.assert_le(u, v);
        assert!(s.is_warm());
        assert!(s.scaffold.get().is_some());
        let fresh = Session::new(s.database().clone());
        assert_eq!(fresh.normal().unwrap().graph, s.normal().unwrap().graph);
    }

    #[test]
    fn cycle_closing_order_edge_invalidates() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); P(u); P(v); u <= v;").unwrap();
        let mut s = Session::new(db);
        assert_eq!(s.normal().unwrap().graph.len(), 2);
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        // v <= u closes a <=-cycle: N1 merges the pair — structural, so
        // the whole cache drops and renormalization sees one vertex.
        s.assert_le(v, u);
        assert!(!s.is_warm());
        assert_eq!(s.normal().unwrap().graph.len(), 1);
        // u < v on the merged class is inconsistent; the session must
        // surface the error, not patch silently.
        s.assert_lt(u, v);
        assert!(s.normal().is_err());
    }

    #[test]
    fn le_on_merged_class_is_a_noop_patch() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); P(u); P(v); u <= v; v <= u;").unwrap();
        let mut s = Session::new(db);
        assert_eq!(s.normal().unwrap().graph.len(), 1);
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        // u <= v inside one N1 class is discharged by N2: the caches
        // stay warm and nothing changes.
        s.assert_le(u, v);
        assert!(s.is_warm());
        assert_eq!(s.normal().unwrap().graph.len(), 1);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn incremental_fact_insert_updates_views_in_place() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let mut s = Session::new(db);
        let p = voc.find_pred("P").unwrap();
        let q = voc.find_pred("Q").unwrap();
        let mdb0 = s.monadic(&voc).unwrap().clone();
        assert!(!mdb0.labels[1].contains(p));
        // Insert P(v): order constant `v` is already a vertex.
        let v = voc.ord("v");
        s.insert_fact(&voc, p, vec![Term::Ord(v)]).unwrap();
        assert!(s.is_warm(), "in-place update must keep the cache warm");
        let mdb = s.monadic(&voc).unwrap();
        let vx = s.normal().unwrap().vertex(v);
        assert!(mdb.labels[vx].contains(p) && mdb.labels[vx].contains(q));
        // And the patched view matches a cold recomputation.
        let fresh = Session::new(s.database().clone());
        assert_eq!(fresh.monadic(&voc).unwrap(), mdb);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn fresh_constant_invalidates() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); P(u);").unwrap();
        let mut s = Session::new(db);
        s.normal().unwrap();
        let p = voc.find_pred("P").unwrap();
        let w = voc.ord("w");
        s.insert_fact(&voc, p, vec![Term::Ord(w)]).unwrap();
        assert!(!s.is_warm());
        assert_eq!(s.normal().unwrap().graph.len(), 2);
    }

    #[test]
    fn object_profiles_compute_and_update() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred Emp(obj); pred Boss(obj); Emp(alice);").unwrap();
        let mut s = Session::new(db);
        let emp = voc.find_pred("Emp").unwrap();
        let boss = voc.find_pred("Boss").unwrap();
        let profiles = s.object_profiles().unwrap();
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].contains(emp));
        // Incremental definite insert extends the cached profiles.
        let alice = voc.find_obj("alice").unwrap();
        s.insert_fact(&voc, boss, vec![Term::Obj(alice)]).unwrap();
        let profiles = s.object_profiles().unwrap();
        assert!(profiles[0].contains(boss));
        let fresh = Session::new(s.database().clone());
        assert_eq!(fresh.object_profiles().unwrap(), profiles);
    }

    #[test]
    fn scaffold_caches_and_tracks_label_mutation() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let mut s = Session::new(db);
        let sc = s.disjunctive_scaffold(&voc).unwrap();
        assert_eq!(sc.vertex_count(), 2);
        let first = sc as *const _;
        assert!(
            std::ptr::eq(first, s.disjunctive_scaffold(&voc).unwrap()),
            "second lookup must hit the cache"
        );
        // An in-place label insert changes the D(S,T) label unions: the
        // scaffold patches them and survives (regression test for the
        // pre-incremental drop).
        let p = voc.find_pred("P").unwrap();
        let v = voc.ord("v");
        s.insert_fact(&voc, p, vec![Term::Ord(v)]).unwrap();
        assert!(s.is_warm());
        assert!(
            s.scaffold.get().is_some(),
            "label insert patches the scaffold in place"
        );
        assert!(
            std::ptr::eq(first, s.disjunctive_scaffold(&voc).unwrap()),
            "same scaffold object survives the write"
        );
        s.scaffold
            .get()
            .unwrap()
            .validate(s.monadic(&voc).unwrap())
            .expect("patched label unions match fresh recomputation");
        // An order mutation over *fresh* constants changes the vertex set:
        // that is structural and still drops everything.
        let (a, b) = (voc.ord("a"), voc.ord("b"));
        s.assert_lt(a, b);
        assert!(s.scaffold.get().is_none());
        assert_eq!(s.disjunctive_scaffold(&voc).unwrap().vertex_count(), 4);
    }

    #[test]
    fn label_insert_patches_warm_pair_tables() {
        // Warm the pair table with a real search shape, then insert a
        // label fact and check the cached a(S,T) unions were updated.
        let mut voc = Vocabulary::new();
        let db = parse_database(
            &mut voc,
            "pred P(ord); pred Q(ord); pred R(ord); P(u); Q(v); R(w); u < v;",
        )
        .unwrap();
        let mut s = Session::new(db);
        let sc = s.disjunctive_scaffold(&voc).unwrap();
        {
            let mdb = s.monadic(&voc).unwrap();
            let mut pairs = sc.pairs();
            let (e, i) = (pairs.empty_id(), pairs.initial_id());
            pairs.ensure(sc, mdb, i, e); // D(S,T) = whole dag
        }
        assert!(sc.cached_pair_count() > 0);
        let q = voc.find_pred("Q").unwrap();
        let w = voc.ord("w");
        s.insert_fact(&voc, q, vec![Term::Ord(w)]).unwrap();
        let sc = s.scaffold.get().expect("scaffold survives");
        sc.validate(s.monadic(&voc).unwrap())
            .expect("patched labels match fresh recomputation");
    }

    #[test]
    fn ne_insert_over_known_vertices_keeps_caches_warm() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); pred Q(ord); P(u); Q(v);").unwrap();
        let mut s = Session::new(db);
        s.disjunctive_scaffold(&voc).unwrap();
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        s.assert_ne(u, v);
        assert!(s.is_warm(), "known-vertex != must not renormalize");
        assert!(s.scaffold.get().is_some(), "scaffold survives !=");
        assert_eq!(s.normal().unwrap().ne, vec![(0, 1)]);
        assert_eq!(s.monadic(&voc).unwrap().ne, vec![(0, 1)]);
        // The patched views match a cold renormalization.
        let fresh = Session::new(s.database().clone());
        assert_eq!(fresh.normal().unwrap().ne, s.normal().unwrap().ne);
        assert_eq!(fresh.monadic(&voc).unwrap(), s.monadic(&voc).unwrap());
        // A != naming a fresh constant is structural: caches drop.
        let w = voc.ord("w");
        s.assert_ne(u, w);
        assert!(!s.is_warm());
        assert_eq!(s.normal().unwrap().ne.len(), 2);
    }

    #[test]
    fn sub_scaffold_tracks_ne_mutations() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v);").unwrap();
        let mut s = Session::new(db);
        assert!(s.sub_scaffold(&voc).unwrap().is_unrestricted());
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        s.assert_ne(u, v);
        let sub = s.sub_scaffold(&voc).unwrap();
        assert!(!sub.is_unrestricted());
        assert!(std::ptr::eq(
            sub.parent(),
            s.disjunctive_scaffold(&voc).unwrap()
        ));
    }

    #[test]
    fn nary_insert_invalidates_monadic_but_not_normal() {
        let mut voc = Vocabulary::new();
        voc.pred("R", &[crate::sym::Sort::Order, crate::sym::Sort::Order])
            .unwrap();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let mut s = Session::new(db);
        assert!(s.monadic(&voc).is_ok());
        let r = voc.find_pred("R").unwrap();
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        s.insert_fact(&voc, r, vec![Term::Ord(u), Term::Ord(v)])
            .unwrap();
        assert!(s.is_warm(), "normal view updated in place");
        assert!(s.monadic(&voc).is_err(), "monadic view must now reject");
        assert_eq!(s.normal().unwrap().proper.len(), 3);
        // Dropping the warm monadic view counts as a cache drop in the
        // stats, not as an absorbed in-place write.
        let st = s.stats();
        assert_eq!(st.cache_drops, 1, "{st:?}");
        assert_eq!(st.in_place_patches, 0, "{st:?}");
    }

    #[test]
    fn inconsistent_database_error_is_cached_and_cleared() {
        let mut voc = Vocabulary::new();
        let mut db = Database::new();
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        db.assert_lt(u, v);
        db.assert_lt(v, u);
        let mut s = Session::new(db);
        assert!(s.normal().is_err());
        assert!(s.normal().is_err());
        // The session can recover if the database is rebuilt.
        let mut fixed = Database::new();
        fixed.assert_lt(u, v);
        s = Session::new(fixed);
        assert!(s.normal().is_ok());
    }

    #[test]
    fn mismatched_vocabulary_is_rejected_grown_one_accepted() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        let s = Session::new(db);
        assert!(s.monadic(&voc).is_ok());
        // The same vocabulary, grown by a new predicate: still accepted.
        voc.monadic_pred("R");
        assert!(s.monadic(&voc).is_ok());
        // A structurally different vocabulary: rejected, not silently
        // answered off the stale view.
        let mut other = Vocabulary::new();
        other.monadic_pred("X");
        other.monadic_pred("Y");
        assert_eq!(
            s.monadic(&other).unwrap_err(),
            crate::error::CoreError::VocabularyMismatch
        );
        // The guard survives mutations: invalidating the cached views
        // must not re-open the session to a foreign vocabulary.
        let mut s = s;
        let (a, b) = (voc.ord("a"), voc.ord("b"));
        s.assert_le(a, b);
        assert_eq!(
            s.monadic(&other).unwrap_err(),
            crate::error::CoreError::VocabularyMismatch
        );
        assert!(s.monadic(&voc).is_ok());
    }

    #[test]
    fn stats_track_builds_patches_and_drops() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); pred Q(ord); P(u); Q(v);").unwrap();
        let mut s = Session::new(db);
        assert_eq!(s.stats(), SessionStats::default());
        s.disjunctive_scaffold(&voc).unwrap();
        assert_eq!(s.stats().scaffold_builds, 1);
        assert_eq!(s.stats().scaffold_rebuilds(), 0);
        // Acyclic edge + known-vertex != + label insert: all in-place.
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        s.assert_lt(u, v);
        s.assert_ne(u, v);
        let p = voc.find_pred("P").unwrap();
        s.insert_fact(&voc, p, vec![Term::Ord(v)]).unwrap();
        let st = s.stats();
        assert_eq!(st.in_place_patches, 3);
        assert_eq!(st.cache_drops, 0);
        assert_eq!(st.scaffold_builds, 1, "no write forced a rebuild");
        assert_eq!(st.epoch, 3);
        // A fresh constant is structural: the caches drop, and the next
        // scaffold access counts as a rebuild.
        let w = voc.ord("w");
        s.assert_lt(v, w);
        assert_eq!(s.stats().cache_drops, 1);
        s.disjunctive_scaffold(&voc).unwrap();
        assert_eq!(s.stats().scaffold_builds, 2);
        assert_eq!(s.stats().scaffold_rebuilds(), 1);
        // Clones keep the epoch but start with zeroed counters.
        let cloned = s.clone().stats();
        assert_eq!(cloned.epoch, s.epoch());
        assert_eq!(SessionStats { epoch: 0, ..cloned }, SessionStats::default());
    }

    #[test]
    fn cold_writes_are_not_counted_as_cache_drops() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); P(u);").unwrap();
        let mut s = Session::new(db);
        // Nothing computed yet: writes have no cache to lose.
        let (v, w) = (voc.ord("v"), voc.ord("w"));
        s.assert_lt(v, w);
        let p = voc.find_pred("P").unwrap();
        s.insert_fact(&voc, p, vec![Term::Ord(w)]).unwrap();
        assert_eq!(s.stats().cache_drops, 0, "{:?}", s.stats());
        // Warm it, then a structural write counts.
        s.normal().unwrap();
        s.assert_lt(voc.ord("x"), voc.ord("y"));
        assert_eq!(s.stats().cache_drops, 1);
    }

    #[test]
    fn stats_report_pair_evictions_under_max_pairs() {
        let mut voc = Vocabulary::new();
        let db = parse_database(
            &mut voc,
            "pred P(ord); pred Q(ord); pred R(ord); P(u); Q(v); R(w);",
        )
        .unwrap();
        let s = Session::new(db).with_max_pairs(1);
        let sc = s.disjunctive_scaffold(&voc).unwrap();
        {
            let mdb = s.monadic(&voc).unwrap();
            let mut pairs = sc.pairs();
            let (e, i) = (pairs.empty_id(), pairs.initial_id());
            pairs.ensure(sc, mdb, i, e);
            pairs.ensure(sc, mdb, e, i);
            pairs.ensure(sc, mdb, e, e);
        }
        // The cap is enforced on the next acquisition.
        let _ = sc.pairs();
        assert!(s.stats().pair_evictions >= 2, "{:?}", s.stats());
    }

    #[test]
    fn freeze_is_warm_and_shares_the_scaffold() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); pred Q(ord); P(u); Q(v);").unwrap();
        let mut s = Session::new(db);
        s.disjunctive_scaffold(&voc).unwrap();
        let snap = s.freeze();
        assert!(snap.is_warm(), "freeze carries the computed views");
        assert_eq!(
            s.shares_scaffold_with(&snap),
            Sharing::Shared,
            "one scaffold, two owners"
        );
        // Every view is carried by reference, inner tables included.
        let report = s.sharing_with(&snap);
        assert_eq!(report.normal, Sharing::Shared);
        assert_eq!(report.monadic, Sharing::Shared);
        assert_eq!(report.order_graph, Sharing::Shared);
        assert_eq!(report.vertex_map, Sharing::Shared);
        assert_eq!(snap.stats().scaffold_builds, 1, "counters carry over");
        // A snapshot read must not count as a fresh build.
        snap.disjunctive_scaffold(&voc).unwrap();
        assert_eq!(snap.stats().scaffold_builds, 1);
        // The writer's next patchable write splits off a private copy:
        // the snapshot keeps its frozen tables, both stay consistent.
        let (u, v) = (voc.ord("u"), voc.ord("v"));
        s.assert_lt(u, v);
        assert_eq!(
            s.shares_scaffold_with(&snap),
            Sharing::Unshared,
            "write must unshare the scaffold, not drop it"
        );
        // The order edge unshared the graph but not the vertex table.
        let report = s.sharing_with(&snap);
        assert_eq!(report.order_graph, Sharing::Unshared);
        assert_eq!(report.vertex_map, Sharing::Shared);
        assert!(snap.scaffold.get().is_some(), "snapshot keeps its view");
        snap.scaffold
            .get()
            .unwrap()
            .validate(snap.monadic(&voc).unwrap())
            .expect("frozen scaffold still matches the frozen database");
        s.scaffold
            .get()
            .unwrap()
            .validate(s.monadic(&voc).unwrap())
            .expect("writer's split-off scaffold matches the new database");
        assert_eq!(s.stats().scaffold_builds, 1, "a CoW split is not a rebuild");
        assert_eq!(s.stats().in_place_patches, 1);
        // Same for the != path (epoch-bump maintenance under CoW).
        let snap2 = s.freeze();
        assert_eq!(s.shares_scaffold_with(&snap2), Sharing::Shared);
        s.assert_ne(u, v);
        assert_eq!(s.shares_scaffold_with(&snap2), Sharing::Unshared);
        assert_eq!(snap2.monadic(&voc).unwrap().ne, vec![]);
        assert_eq!(s.monadic(&voc).unwrap().ne, vec![(0, 1)]);
        // A != write touches the ne lists only: the dag stays shared.
        let report = s.sharing_with(&snap2);
        assert_eq!(report.order_graph, Sharing::Shared);
        assert_eq!(report.vertex_map, Sharing::Shared);
    }

    #[test]
    fn shares_scaffold_with_is_cold_not_false_on_unwarmed_sessions() {
        // Regression: the old boolean API returned `false` for cold
        // sessions, so "must not share" assertions passed vacuously when
        // warmup silently failed. Cold must be its own answer.
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); P(u);").unwrap();
        let s = Session::new(db);
        let other = s.clone();
        assert_eq!(s.shares_scaffold_with(&other), Sharing::Cold);
        s.disjunctive_scaffold(&voc).unwrap();
        assert_eq!(
            s.shares_scaffold_with(&other),
            Sharing::Cold,
            "one warm side is still not a comparison"
        );
        other.disjunctive_scaffold(&voc).unwrap();
        assert_eq!(
            s.shares_scaffold_with(&other),
            Sharing::Unshared,
            "independently built scaffolds are distinct objects"
        );
        let report = s.sharing_with(&other);
        assert_eq!(report.scaffold, Sharing::Unshared);
        assert_eq!(report.profiles, Sharing::Cold);
    }

    #[test]
    fn freeze_shares_the_fact_log_chunks() {
        // The database's sealed chunks are shared between writer and
        // snapshot, and later appends never unshare them.
        let mut voc = Vocabulary::new();
        let p = voc.pred("P", &[crate::sym::Sort::Order]).unwrap();
        let mut db = Database::new();
        for i in 0..200 {
            let u = voc.ord(&format!("u{i}"));
            db.assert_fact(&voc, p, vec![Term::Ord(u)]).unwrap();
        }
        let mut s = Session::new(db);
        s.normal().unwrap();
        let snap = s.freeze();
        let sealed = s.database().proper_atoms().sealed_chunks();
        assert!(sealed >= 3);
        assert_eq!(
            s.database()
                .proper_atoms()
                .shared_chunks_with(snap.database().proper_atoms()),
            sealed
        );
        // Writer keeps appending: the snapshot's chunks stay shared.
        let u0 = voc.ord("u0");
        for _ in 0..100 {
            s.insert_fact(&voc, p, vec![Term::Ord(u0)]).unwrap();
        }
        assert_eq!(
            s.database()
                .proper_atoms()
                .shared_chunks_with(snap.database().proper_atoms()),
            sealed
        );
    }

    #[test]
    fn clone_starts_cold_with_same_content() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u <= v;").unwrap();
        let s = Session::new(db);
        s.normal().unwrap();
        let c = s.clone();
        assert!(!c.is_warm());
        assert_eq!(c.database(), s.database());
    }
}
