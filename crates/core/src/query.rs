//! Positive existential queries.
//!
//! Queries are built from proper atoms and order atoms with `∧`, `∨`, `∃`
//! (§2). For complexity analysis the paper assumes queries in disjunctive
//! normal form; [`QueryExpr::to_dnf`] performs the conversion, producing a
//! [`DnfQuery`] of normalized [`ConjunctiveQuery`] disjuncts. Distributing
//! `∧` over `∨` multiplies disjunct counts, so the conversion first sizes
//! the result from the expression tree ([`QueryExpr::dnf_size`]) and
//! refuses anything over [`MAX_DNF_DISJUNCTS`] before allocating.
//!
//! Implemented transforms from §2 of the paper:
//!
//! * **constant elimination** — queries are assumed constant-free; a query
//!   with constants is rewritten using a fresh monadic predicate `P_u` per
//!   constant, and the facts `P_u(u)` are adjoined to the database
//!   ([`eliminate_constants`]);
//! * **normalization N1/N2** on each disjunct (merging `<=`-cycles of
//!   variables, deleting `t <= t`), dropping unsatisfiable disjuncts;
//! * **tightness** (Prop. 2.2) — every order variable of every disjunct
//!   occurs in a proper atom;
//! * **fullness** — each disjunct closed under the derived-atom rules —
//!   and the companion transform dropping order-only variables
//!   (Lemma 2.5), used by the `|=_Q` reduction.

use crate::atom::OrderRel;
use crate::database::Database;
use crate::error::{CoreError, Result};
use crate::ordgraph::OrderGraph;
use crate::sym::{ObjSym, OrdSym, PredSym, Sort, Vocabulary};
use std::collections::HashMap;
use std::fmt;

/// A term inside a (not yet normalized) query: a named variable or a
/// constant of either sort.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QTerm {
    /// A variable (sort inferred from use).
    Var(String),
    /// An object constant.
    ObjConst(ObjSym),
    /// An order constant.
    OrdConst(OrdSym),
}

/// The most disjuncts [`QueryExpr::to_dnf`] will build. Larger queries
/// are refused with [`CoreError::CapExceeded`]; the same bound as the §7
/// `!=` expansion cap of the engine.
pub const MAX_DNF_DISJUNCTS: usize = 4096;

/// A positive existential query expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// Conjunction.
    And(Vec<QueryExpr>),
    /// Disjunction.
    Or(Vec<QueryExpr>),
    /// Existential quantification over named variables.
    Exists(Vec<String>, Box<QueryExpr>),
    /// A proper atom `P(t₁,…,tₙ)`.
    Proper {
        /// The predicate.
        pred: PredSym,
        /// Argument terms.
        args: Vec<QTerm>,
    },
    /// An order atom `s R t`.
    Order {
        /// Left term (must be of order sort).
        lhs: QTerm,
        /// Relation.
        rel: OrderRel,
        /// Right term.
        rhs: QTerm,
    },
}

impl QueryExpr {
    /// `lhs < rhs` between named variables.
    pub fn lt(lhs: &str, rhs: &str) -> QueryExpr {
        QueryExpr::Order {
            lhs: QTerm::Var(lhs.into()),
            rel: OrderRel::Lt,
            rhs: QTerm::Var(rhs.into()),
        }
    }

    /// `lhs <= rhs` between named variables.
    pub fn le(lhs: &str, rhs: &str) -> QueryExpr {
        QueryExpr::Order {
            lhs: QTerm::Var(lhs.into()),
            rel: OrderRel::Le,
            rhs: QTerm::Var(rhs.into()),
        }
    }

    /// `lhs != rhs` between named variables (§7).
    pub fn ne(lhs: &str, rhs: &str) -> QueryExpr {
        QueryExpr::Order {
            lhs: QTerm::Var(lhs.into()),
            rel: OrderRel::Ne,
            rhs: QTerm::Var(rhs.into()),
        }
    }

    /// A monadic proper atom `P(x)` on a named variable.
    pub fn atom1(pred: PredSym, var: &str) -> QueryExpr {
        QueryExpr::Proper {
            pred,
            args: vec![QTerm::Var(var.into())],
        }
    }

    /// How many disjuncts the DNF of this expression has before
    /// unsatisfiable ones are dropped, computed from the tree without
    /// building any: `And` multiplies its parts' counts, `Or` adds them,
    /// `Exists` passes its body's through, and an atom counts one.
    /// Saturates at `usize::MAX`.
    pub(crate) fn dnf_size(&self) -> usize {
        match self {
            QueryExpr::And(parts) => parts.iter().fold(1, |n, p| n.saturating_mul(p.dnf_size())),
            QueryExpr::Or(parts) => parts.iter().fold(0, |n, p| n.saturating_add(p.dnf_size())),
            QueryExpr::Exists(_, body) => body.dnf_size(),
            QueryExpr::Proper { .. } | QueryExpr::Order { .. } => 1,
        }
    }

    /// Converts to disjunctive normal form and normalizes each disjunct.
    ///
    /// Unsatisfiable disjuncts (whose order atoms are cyclic through `<`)
    /// are dropped; a query all of whose disjuncts are unsatisfiable yields
    /// an empty [`DnfQuery`], which no database entails. A query whose DNF
    /// would exceed [`MAX_DNF_DISJUNCTS`] is refused with
    /// [`CoreError::CapExceeded`] before anything is built.
    pub fn to_dnf(&self, voc: &Vocabulary) -> Result<DnfQuery> {
        let size = self.dnf_size();
        if size > MAX_DNF_DISJUNCTS {
            return Err(CoreError::CapExceeded {
                what: format!("DNF expansion ({size} disjuncts)"),
                limit: MAX_DNF_DISJUNCTS,
            });
        }
        // 1. Flatten to a disjunction of atom lists, tracking scopes.
        let mut disjuncts: Vec<Vec<FlatAtom>> = vec![Vec::new()];
        flatten(self, &mut Vec::new(), &mut disjuncts)?;
        // 2. Build conjunctive queries.
        let mut out = Vec::new();
        for atoms in disjuncts {
            if let Some(cq) = ConjunctiveQuery::from_flat(voc, &atoms)? {
                out.push(cq);
            }
        }
        Ok(DnfQuery { disjuncts: out })
    }
}

/// An atom with scope-resolved variables, produced during DNF flattening.
#[derive(Debug, Clone)]
enum FlatAtom {
    Proper {
        pred: PredSym,
        args: Vec<FlatTerm>,
    },
    Order {
        lhs: FlatTerm,
        rel: OrderRel,
        rhs: FlatTerm,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FlatTerm {
    /// Scope-unique variable id (name, disambiguator).
    Var(String, usize),
    ObjConst(ObjSym),
    OrdConst(OrdSym),
}

/// Recursive DNF flattening. `scope` maps visible variable names to unique
/// ids; `acc` is the current set of partial disjuncts (conjunctions built
/// so far) — atoms are appended to every partial disjunct, and `Or` nodes
/// fork the set.
fn flatten(
    e: &QueryExpr,
    scope: &mut Vec<(String, usize)>,
    acc: &mut Vec<Vec<FlatAtom>>,
) -> Result<()> {
    fn resolve(t: &QTerm, scope: &[(String, usize)]) -> Result<FlatTerm> {
        match t {
            QTerm::Var(n) => scope
                .iter()
                .rev()
                .find(|(m, _)| m == n)
                .map(|(n, i)| FlatTerm::Var(n.clone(), *i))
                .ok_or_else(|| CoreError::UnboundVariable { name: n.clone() }),
            QTerm::ObjConst(o) => Ok(FlatTerm::ObjConst(*o)),
            QTerm::OrdConst(u) => Ok(FlatTerm::OrdConst(*u)),
        }
    }

    match e {
        QueryExpr::Proper { pred, args } => {
            let args = args
                .iter()
                .map(|t| resolve(t, scope))
                .collect::<Result<Vec<_>>>()?;
            for d in acc.iter_mut() {
                d.push(FlatAtom::Proper {
                    pred: *pred,
                    args: args.clone(),
                });
            }
            Ok(())
        }
        QueryExpr::Order { lhs, rel, rhs } => {
            let l = resolve(lhs, scope)?;
            let r = resolve(rhs, scope)?;
            for d in acc.iter_mut() {
                d.push(FlatAtom::Order {
                    lhs: l.clone(),
                    rel: *rel,
                    rhs: r.clone(),
                });
            }
            Ok(())
        }
        QueryExpr::And(parts) => {
            for p in parts {
                flatten(p, scope, acc)?;
            }
            Ok(())
        }
        QueryExpr::Or(parts) => {
            let base = acc.clone();
            let mut all = Vec::new();
            for p in parts {
                let mut branch = base.clone();
                flatten(p, scope, &mut branch)?;
                all.extend(branch);
            }
            *acc = all;
            Ok(())
        }
        QueryExpr::Exists(names, body) => {
            let mark = scope.len();
            for n in names {
                // Each quantifier introduction gets a globally fresh id so
                // that shadowing and re-use of names across scopes cannot
                // collide.
                scope.push((n.clone(), fresh_var_id()));
            }
            flatten(body, scope, acc)?;
            scope.truncate(mark);
            Ok(())
        }
    }
}

fn fresh_var_id() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An argument of a proper atom in a normalized conjunctive query: a
/// variable index of the appropriate sort. Constants have been eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QArg {
    /// Object variable (index into the disjunct's object variables).
    Obj(u32),
    /// Order variable (index into the disjunct's order variables).
    Ord(u32),
}

/// A proper atom of a normalized conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryAtom {
    /// The predicate.
    pub pred: PredSym,
    /// Variable arguments.
    pub args: Vec<QArg>,
}

/// A normalized conjunctive query: dense object/order variables, proper
/// atoms over variables, and order atoms between order variables. The
/// order atoms form a consistent dag (N1/N2 applied at construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Number of object variables.
    pub n_obj_vars: usize,
    /// Number of order variables.
    pub n_ord_vars: usize,
    /// Proper atoms.
    pub proper: Vec<QueryAtom>,
    /// Order atoms `(s, rel, t)` over order-variable indices. `Ne` atoms
    /// appear only when the §7 extension is in use.
    pub order: Vec<(u32, OrderRel, u32)>,
}

impl ConjunctiveQuery {
    /// Builds from flattened atoms; returns `None` when the disjunct is
    /// unsatisfiable (dropped from the DNF).
    fn from_flat(voc: &Vocabulary, atoms: &[FlatAtom]) -> Result<Option<ConjunctiveQuery>> {
        // Infer variable sorts, assign dense indices. Constants are kept as
        // pseudo-variables here and must be eliminated before engines run;
        // we reject them to keep this constructor total — the public
        // constant path goes through `DnfQuery::eliminate_constants`, which
        // rewrites FlatTerm constants into variables beforehand. To support
        // that, map constants to reserved variable slots is not needed:
        // the parser and builders call eliminate on the QueryExpr level.
        let mut obj_index: HashMap<FlatTerm, u32> = HashMap::new();
        let mut ord_index: HashMap<FlatTerm, u32> = HashMap::new();
        let mut proper = Vec::new();
        let mut order = Vec::new();

        let intern_obj = |t: &FlatTerm, obj_index: &mut HashMap<FlatTerm, u32>| {
            let next = obj_index.len() as u32;
            *obj_index.entry(t.clone()).or_insert(next)
        };
        let intern_ord = |t: &FlatTerm, ord_index: &mut HashMap<FlatTerm, u32>| {
            let next = ord_index.len() as u32;
            *ord_index.entry(t.clone()).or_insert(next)
        };

        // First pass: sort inference for variables; conflict check.
        let mut sorts: HashMap<FlatTerm, Sort> = HashMap::new();
        let mut record = |t: &FlatTerm, s: Sort, pred: &str| -> Result<()> {
            match t {
                FlatTerm::Var(..) => {
                    if let Some(&prev) = sorts.get(t) {
                        if prev != s {
                            return Err(CoreError::SortMismatch {
                                pred: pred.to_string(),
                                position: 0,
                                expected: prev,
                            });
                        }
                    } else {
                        sorts.insert(t.clone(), s);
                    }
                    Ok(())
                }
                FlatTerm::ObjConst(_) if s == Sort::Object => Ok(()),
                FlatTerm::OrdConst(_) if s == Sort::Order => Ok(()),
                _ => Err(CoreError::SortMismatch {
                    pred: pred.to_string(),
                    position: 0,
                    expected: s,
                }),
            }
        };
        for a in atoms {
            match a {
                FlatAtom::Proper { pred, args } => {
                    let sig = voc.signature(*pred);
                    if sig.arity() != args.len() {
                        return Err(CoreError::ArityMismatch {
                            pred: voc.pred_name(*pred).to_string(),
                            expected: sig.arity(),
                            found: args.len(),
                        });
                    }
                    for (t, &s) in args.iter().zip(&sig.arg_sorts) {
                        record(t, s, voc.pred_name(*pred))?;
                    }
                }
                FlatAtom::Order { lhs, rhs, .. } => {
                    record(lhs, Sort::Order, "<order>")?;
                    record(rhs, Sort::Order, "<order>")?;
                }
            }
        }

        // Constants must have been eliminated already.
        for a in atoms {
            let terms: Vec<&FlatTerm> = match a {
                FlatAtom::Proper { args, .. } => args.iter().collect(),
                FlatAtom::Order { lhs, rhs, .. } => vec![lhs, rhs],
            };
            for t in terms {
                if !matches!(t, FlatTerm::Var(..)) {
                    return Err(CoreError::Parse {
                        span: crate::error::Span::NONE,
                        message: "query contains constants; call eliminate_constants first"
                            .to_string(),
                    });
                }
            }
        }

        // Second pass: build with dense indices.
        for a in atoms {
            match a {
                FlatAtom::Proper { pred, args } => {
                    let sig = voc.signature(*pred);
                    let mut qargs = Vec::with_capacity(args.len());
                    for (t, &s) in args.iter().zip(&sig.arg_sorts) {
                        let qa = match s {
                            Sort::Object => QArg::Obj(intern_obj(t, &mut obj_index)),
                            Sort::Order => QArg::Ord(intern_ord(t, &mut ord_index)),
                        };
                        qargs.push(qa);
                    }
                    proper.push(QueryAtom {
                        pred: *pred,
                        args: qargs,
                    });
                }
                FlatAtom::Order { lhs, rel, rhs } => {
                    let l = intern_ord(lhs, &mut ord_index);
                    let r = intern_ord(rhs, &mut ord_index);
                    order.push((l, *rel, r));
                }
            }
        }

        let cq = ConjunctiveQuery {
            n_obj_vars: obj_index.len(),
            n_ord_vars: ord_index.len(),
            proper,
            order,
        };
        Ok(cq.normalized())
    }

    /// Applies N1/N2 to the order variables; returns `None` if the disjunct
    /// is unsatisfiable (a `<` cycle).
    pub fn normalized(&self) -> Option<ConjunctiveQuery> {
        let edges: Vec<(usize, usize, OrderRel)> = self
            .order
            .iter()
            .filter(|(_, r, _)| *r != OrderRel::Ne)
            .map(|&(l, rel, r)| (l as usize, r as usize, rel))
            .collect();
        let nz = OrderGraph::normalize(self.n_ord_vars, &edges).ok()?;
        let mut order: Vec<(u32, OrderRel, u32)> = nz
            .graph
            .edges()
            .map(|(u, v, rel)| (u as u32, rel, v as u32))
            .collect();
        // `!=` atoms between merged variables make the disjunct unsat.
        for &(l, rel, r) in &self.order {
            if rel == OrderRel::Ne {
                let (cl, cr) = (nz.class_of[l as usize], nz.class_of[r as usize]);
                if cl == cr {
                    return None;
                }
                order.push((cl as u32, OrderRel::Ne, cr as u32));
            }
        }
        order.sort_unstable();
        order.dedup();
        let proper = self
            .proper
            .iter()
            .map(|a| QueryAtom {
                pred: a.pred,
                args: a
                    .args
                    .iter()
                    .map(|qa| match *qa {
                        QArg::Obj(i) => QArg::Obj(i),
                        QArg::Ord(i) => QArg::Ord(nz.class_of[i as usize] as u32),
                    })
                    .collect(),
            })
            .collect();
        Some(
            ConjunctiveQuery {
                n_obj_vars: self.n_obj_vars,
                n_ord_vars: nz.graph.len(),
                proper,
                order,
            }
            .display_canonical(),
        )
    }

    /// Renumbers variables into the *display-canonical* numbering: the
    /// first-occurrence order of a scan over the proper atoms followed by
    /// the sorted order atoms — exactly the sequence
    /// [`ConjunctiveQuery::display`] emits and the parser re-interns. On
    /// this numbering `parse ∘ display` is the identity (pinned by the
    /// `parse_props` suite); without it, DNF distribution can leave a
    /// disjunct numbered by an atom order the display no longer shows.
    ///
    /// Renumbering order variables re-sorts the order atoms, which can
    /// change their occurrence sequence again, so the pass iterates to a
    /// fixpoint (tiny in practice: one or two rounds).
    fn display_canonical(mut self) -> ConjunctiveQuery {
        // Object variables occur only in proper atoms: one pass suffices.
        let mut obj_map: Vec<Option<u32>> = vec![None; self.n_obj_vars];
        let mut next_obj = 0u32;
        for a in &self.proper {
            for qa in &a.args {
                if let QArg::Obj(i) = qa {
                    obj_map[*i as usize].get_or_insert_with(|| {
                        let n = next_obj;
                        next_obj += 1;
                        n
                    });
                }
            }
        }
        // Variables never mentioned (possible only in hand-built queries)
        // keep the remaining numbers in index order.
        for m in &mut obj_map {
            m.get_or_insert_with(|| {
                let n = next_obj;
                next_obj += 1;
                n
            });
        }
        for a in &mut self.proper {
            for qa in &mut a.args {
                if let QArg::Obj(i) = qa {
                    *i = obj_map[*i as usize].expect("assigned above");
                }
            }
        }
        // Order variables: iterate renumber + re-sort to a fixpoint.
        for _ in 0..=self.n_ord_vars {
            let mut map: Vec<Option<u32>> = vec![None; self.n_ord_vars];
            let mut next = 0u32;
            let mut visit = |i: u32, map: &mut Vec<Option<u32>>| {
                map[i as usize].get_or_insert_with(|| {
                    let n = next;
                    next += 1;
                    n
                });
            };
            for a in &self.proper {
                for qa in &a.args {
                    if let QArg::Ord(i) = qa {
                        visit(*i, &mut map);
                    }
                }
            }
            for &(l, _, r) in &self.order {
                visit(l, &mut map);
                visit(r, &mut map);
            }
            for m in &mut map {
                m.get_or_insert_with(|| {
                    let n = next;
                    next += 1;
                    n
                });
            }
            if map.iter().enumerate().all(|(i, m)| *m == Some(i as u32)) {
                break;
            }
            let apply = |i: u32, map: &[Option<u32>]| map[i as usize].expect("assigned above");
            for a in &mut self.proper {
                for qa in &mut a.args {
                    if let QArg::Ord(i) = qa {
                        *i = apply(*i, &map);
                    }
                }
            }
            for e in &mut self.order {
                e.0 = apply(e.0, &map);
                e.2 = apply(e.2, &map);
            }
            self.order.sort_unstable();
        }
        self
    }

    /// The order dag of the disjunct (`!=` atoms excluded).
    pub fn order_graph(&self) -> OrderGraph {
        let edges: Vec<(usize, usize, OrderRel)> = self
            .order
            .iter()
            .filter(|(_, r, _)| *r != OrderRel::Ne)
            .map(|&(l, rel, r)| (l as usize, r as usize, rel))
            .collect();
        OrderGraph::from_dag_edges(self.n_ord_vars, &edges)
            .expect("normalized disjunct must be acyclic")
    }

    /// Number of atoms (the size measure `|Φ|`).
    pub fn len(&self) -> usize {
        self.proper.len() + self.order.len()
    }

    /// True when there are no atoms at all (the empty query, which every
    /// database entails).
    pub fn is_empty(&self) -> bool {
        self.proper.is_empty() && self.order.is_empty()
    }

    /// **Tightness** (Prop. 2.2): every order variable occurs in some
    /// proper atom.
    pub fn is_tight(&self) -> bool {
        let mut in_proper = vec![false; self.n_ord_vars];
        for a in &self.proper {
            for qa in &a.args {
                if let QArg::Ord(i) = qa {
                    in_proper[*i as usize] = true;
                }
            }
        }
        in_proper.iter().all(|&b| b)
    }

    /// **Sequentiality** (§1, §4): the order variables are linearly ordered
    /// by the order atoms — the order dag has width ≤ 1. Queries with `!=`
    /// atoms are never sequential in the paper's sense.
    pub fn is_sequential(&self) -> bool {
        if self.order.iter().any(|(_, r, _)| *r == OrderRel::Ne) {
            return false;
        }
        self.n_ord_vars <= 1 || self.order_graph().width() <= 1
    }

    /// Width of the disjunct's order dag.
    pub fn width(&self) -> usize {
        self.order_graph().width()
    }

    /// **Fullness** closure (§2): adds every derived order atom.
    pub fn to_full(&self) -> ConjunctiveQuery {
        let g = self.order_graph().full_closure();
        let mut order: Vec<(u32, OrderRel, u32)> = g
            .edges()
            .map(|(u, v, rel)| (u as u32, rel, v as u32))
            .collect();
        for &(l, rel, r) in &self.order {
            if rel == OrderRel::Ne {
                order.push((l, rel, r));
            }
        }
        order.sort_unstable();
        order.dedup();
        ConjunctiveQuery {
            order,
            ..self.clone()
        }
    }

    /// Lemma 2.5 transform: assuming the disjunct is full, deletes order
    /// variables that occur in no proper atom, together with their order
    /// atoms, renumbering the remaining variables.
    pub fn drop_order_only_vars(&self) -> ConjunctiveQuery {
        let mut in_proper = vec![false; self.n_ord_vars];
        for a in &self.proper {
            for qa in &a.args {
                if let QArg::Ord(i) = qa {
                    in_proper[*i as usize] = true;
                }
            }
        }
        let mut remap = vec![u32::MAX; self.n_ord_vars];
        let mut next = 0u32;
        for (i, &keep) in in_proper.iter().enumerate() {
            if keep {
                remap[i] = next;
                next += 1;
            }
        }
        let order = self
            .order
            .iter()
            .filter(|&&(l, _, r)| in_proper[l as usize] && in_proper[r as usize])
            .map(|&(l, rel, r)| (remap[l as usize], rel, remap[r as usize]))
            .collect();
        let proper = self
            .proper
            .iter()
            .map(|a| QueryAtom {
                pred: a.pred,
                args: a
                    .args
                    .iter()
                    .map(|qa| match *qa {
                        QArg::Obj(i) => QArg::Obj(i),
                        QArg::Ord(i) => QArg::Ord(remap[i as usize]),
                    })
                    .collect(),
            })
            .collect();
        ConjunctiveQuery {
            n_obj_vars: self.n_obj_vars,
            n_ord_vars: next as usize,
            proper,
            order,
        }
    }

    /// Eliminates `!=` atoms by expanding each into the disjunction
    /// `u < v ∨ v < u` (§7). The result has `2^m` disjuncts for `m`
    /// inequality atoms; `cap` guards the blow-up.
    pub fn eliminate_ne(&self, cap: usize) -> Result<Vec<ConjunctiveQuery>> {
        let ne: Vec<(u32, u32)> = self
            .order
            .iter()
            .filter(|(_, r, _)| *r == OrderRel::Ne)
            .map(|&(l, _, r)| (l, r))
            .collect();
        if ne.is_empty() {
            return Ok(vec![self.clone()]);
        }
        if 1usize.checked_shl(ne.len() as u32).is_none_or(|n| n > cap) {
            return Err(CoreError::CapExceeded {
                what: "!= elimination".to_string(),
                limit: cap,
            });
        }
        let base: Vec<(u32, OrderRel, u32)> = self
            .order
            .iter()
            .filter(|(_, r, _)| *r != OrderRel::Ne)
            .copied()
            .collect();
        let mut out = Vec::new();
        for mask in 0..(1usize << ne.len()) {
            let mut order = base.clone();
            for (bit, &(l, r)) in ne.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    order.push((l, OrderRel::Lt, r));
                } else {
                    order.push((r, OrderRel::Lt, l));
                }
            }
            let cand = ConjunctiveQuery {
                order,
                ..self.clone()
            };
            if let Some(n) = cand.normalized() {
                out.push(n);
            }
        }
        Ok(out)
    }

    /// Renders the disjunct with invented variable names `x0…`, `t0…`.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl fmt::Display + 'a {
        DisplayCq { cq: self, voc }
    }
}

struct DisplayCq<'a> {
    cq: &'a ConjunctiveQuery,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayCq<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exists")?;
        for i in 0..self.cq.n_obj_vars {
            write!(f, " x{i}")?;
        }
        for i in 0..self.cq.n_ord_vars {
            write!(f, " t{i}")?;
        }
        write!(f, ". ")?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, " & ")?;
            }
            first = false;
            Ok(())
        };
        for a in &self.cq.proper {
            sep(f)?;
            write!(f, "{}(", self.voc.pred_name(a.pred))?;
            for (i, qa) in a.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match qa {
                    QArg::Obj(v) => write!(f, "x{v}")?,
                    QArg::Ord(v) => write!(f, "t{v}")?,
                }
            }
            write!(f, ")")?;
        }
        for &(l, rel, r) in &self.cq.order {
            sep(f)?;
            write!(f, "t{l} {rel} t{r}")?;
        }
        // Order variables occurring in no atom (e.g. the residue of a
        // normalized-away `b <= b`) still assert that a point exists:
        // render them as tautological self-guards so the binder
        // round-trips through the parser instead of vanishing.
        let mut seen = vec![false; self.cq.n_ord_vars];
        for a in &self.cq.proper {
            for qa in &a.args {
                if let QArg::Ord(i) = qa {
                    seen[*i as usize] = true;
                }
            }
        }
        for &(l, _, r) in &self.cq.order {
            seen[l as usize] = true;
            seen[r as usize] = true;
        }
        for (i, used) in seen.iter().enumerate() {
            if !used {
                sep(f)?;
                write!(f, "t{i} <= t{i}")?;
            }
        }
        if first {
            write!(f, "true")?;
        }
        Ok(())
    }
}

/// A query in disjunctive normal form: a disjunction of normalized
/// conjunctive queries. The empty disjunction is the unsatisfiable query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnfQuery {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl DnfQuery {
    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// A conjunctive query viewed as a one-disjunct DNF.
    pub fn conjunctive(cq: ConjunctiveQuery) -> DnfQuery {
        DnfQuery {
            disjuncts: vec![cq],
        }
    }

    /// True when every disjunct is tight (Prop. 2.2 applies).
    pub fn is_tight(&self) -> bool {
        self.disjuncts.iter().all(ConjunctiveQuery::is_tight)
    }

    /// True when the query is conjunctive (at most one disjunct).
    pub fn is_conjunctive(&self) -> bool {
        self.disjuncts.len() <= 1
    }

    /// Fullness closure applied to every disjunct.
    pub fn to_full(&self) -> DnfQuery {
        DnfQuery {
            disjuncts: self
                .disjuncts
                .iter()
                .map(ConjunctiveQuery::to_full)
                .collect(),
        }
    }

    /// Disjunction of two queries.
    pub fn or(mut self, other: DnfQuery) -> DnfQuery {
        self.disjuncts.extend(other.disjuncts);
        self
    }

    /// Total size `|Φ|`.
    pub fn len(&self) -> usize {
        self.disjuncts.iter().map(ConjunctiveQuery::len).sum()
    }

    /// True when there are no disjuncts (the false query).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Renders the query.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> impl fmt::Display + 'a {
        DisplayDnf { q: self, voc }
    }
}

struct DisplayDnf<'a> {
    q: &'a DnfQuery,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayDnf<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.q.disjuncts.is_empty() {
            return write!(f, "false");
        }
        for (i, d) in self.q.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "({})", d.display(self.voc))?;
        }
        Ok(())
    }
}

/// Constant elimination (§2): rewrites a [`QueryExpr`] that may mention
/// constants into a constant-free one, adjoining facts `P_u(u)` to a copy
/// of the database. Returns the augmented database and the DNF of the
/// rewritten query.
///
/// For each object constant `a` a fresh monadic predicate `$Pa` over the
/// object sort is introduced with fact `$Pa(a)`; likewise per order
/// constant with an order-sorted monadic predicate. Every occurrence of the
/// constant becomes a fresh existential variable guarded by the predicate.
pub fn eliminate_constants(
    voc: &mut Vocabulary,
    db: &Database,
    query: &QueryExpr,
) -> Result<(Database, DnfQuery)> {
    let mut new_db = db.clone();
    let mut obj_guard: HashMap<ObjSym, (PredSym, String)> = HashMap::new();
    let mut ord_guard: HashMap<OrdSym, (PredSym, String)> = HashMap::new();
    let mut counter = 0usize;

    fn rewrite(
        e: &QueryExpr,
        voc: &mut Vocabulary,
        new_db: &mut Database,
        obj_guard: &mut HashMap<ObjSym, (PredSym, String)>,
        ord_guard: &mut HashMap<OrdSym, (PredSym, String)>,
        counter: &mut usize,
    ) -> Result<QueryExpr> {
        let mut guards: Vec<QueryExpr> = Vec::new();
        let mut fresh_vars: Vec<String> = Vec::new();
        let handle = |t: &QTerm,
                      voc: &mut Vocabulary,
                      new_db: &mut Database,
                      obj_guard: &mut HashMap<ObjSym, (PredSym, String)>,
                      ord_guard: &mut HashMap<OrdSym, (PredSym, String)>,
                      counter: &mut usize,
                      guards: &mut Vec<QueryExpr>,
                      fresh_vars: &mut Vec<String>|
         -> Result<QTerm> {
            match t {
                QTerm::Var(_) => Ok(t.clone()),
                QTerm::ObjConst(o) => {
                    let (pred, var) = obj_guard
                        .entry(*o)
                        .or_insert_with(|| {
                            let p = voc.fresh_pred("guard_obj", &[Sort::Object]);
                            let v = format!("$c{}", {
                                *counter += 1;
                                *counter
                            });
                            new_db.push_proper(crate::atom::ProperAtom {
                                pred: p,
                                args: vec![crate::atom::Term::Obj(*o)],
                            });
                            (p, v)
                        })
                        .clone();
                    if !fresh_vars.contains(&var) {
                        fresh_vars.push(var.clone());
                        guards.push(QueryExpr::Proper {
                            pred,
                            args: vec![QTerm::Var(var.clone())],
                        });
                    }
                    Ok(QTerm::Var(var))
                }
                QTerm::OrdConst(u) => {
                    let (pred, var) = ord_guard
                        .entry(*u)
                        .or_insert_with(|| {
                            let p = voc.fresh_pred("guard_ord", &[Sort::Order]);
                            let v = format!("$c{}", {
                                *counter += 1;
                                *counter
                            });
                            new_db.push_proper(crate::atom::ProperAtom {
                                pred: p,
                                args: vec![crate::atom::Term::Ord(*u)],
                            });
                            (p, v)
                        })
                        .clone();
                    if !fresh_vars.contains(&var) {
                        fresh_vars.push(var.clone());
                        guards.push(QueryExpr::Proper {
                            pred,
                            args: vec![QTerm::Var(var.clone())],
                        });
                    }
                    Ok(QTerm::Var(var))
                }
            }
        };

        let core = match e {
            QueryExpr::Proper { pred, args } => {
                let args = args
                    .iter()
                    .map(|t| {
                        handle(
                            t,
                            voc,
                            new_db,
                            obj_guard,
                            ord_guard,
                            counter,
                            &mut guards,
                            &mut fresh_vars,
                        )
                    })
                    .collect::<Result<Vec<_>>>()?;
                QueryExpr::Proper { pred: *pred, args }
            }
            QueryExpr::Order { lhs, rel, rhs } => {
                let l = handle(
                    lhs,
                    voc,
                    new_db,
                    obj_guard,
                    ord_guard,
                    counter,
                    &mut guards,
                    &mut fresh_vars,
                )?;
                let r = handle(
                    rhs,
                    voc,
                    new_db,
                    obj_guard,
                    ord_guard,
                    counter,
                    &mut guards,
                    &mut fresh_vars,
                )?;
                QueryExpr::Order {
                    lhs: l,
                    rel: *rel,
                    rhs: r,
                }
            }
            QueryExpr::And(ps) => QueryExpr::And(
                ps.iter()
                    .map(|p| rewrite(p, voc, new_db, obj_guard, ord_guard, counter))
                    .collect::<Result<Vec<_>>>()?,
            ),
            QueryExpr::Or(ps) => QueryExpr::Or(
                ps.iter()
                    .map(|p| rewrite(p, voc, new_db, obj_guard, ord_guard, counter))
                    .collect::<Result<Vec<_>>>()?,
            ),
            QueryExpr::Exists(names, body) => QueryExpr::Exists(
                names.clone(),
                Box::new(rewrite(body, voc, new_db, obj_guard, ord_guard, counter)?),
            ),
        };
        if guards.is_empty() {
            Ok(core)
        } else {
            let mut parts = guards;
            parts.push(core);
            Ok(QueryExpr::Exists(
                fresh_vars,
                Box::new(QueryExpr::And(parts)),
            ))
        }
    }

    let rewritten = rewrite(
        query,
        voc,
        &mut new_db,
        &mut obj_guard,
        &mut ord_guard,
        &mut counter,
    )?;
    let dnf = rewritten.to_dnf(voc)?;
    Ok((new_db, dnf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voc() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.monadic_pred("P");
        v.monadic_pred("Q");
        v.monadic_pred("R");
        v
    }

    fn p(v: &Vocabulary, name: &str) -> PredSym {
        v.find_pred(name).unwrap()
    }

    #[test]
    fn simple_conjunctive_to_dnf() {
        let v = voc();
        let e = QueryExpr::Exists(
            vec!["s".into(), "t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "s"),
                QueryExpr::lt("s", "t"),
                QueryExpr::atom1(p(&v, "Q"), "t"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert_eq!(d.disjuncts.len(), 1);
        let cq = &d.disjuncts[0];
        assert_eq!(cq.n_ord_vars, 2);
        assert_eq!(cq.proper.len(), 2);
        assert_eq!(cq.order.len(), 1);
        assert!(cq.is_tight());
        assert!(cq.is_sequential());
    }

    #[test]
    fn disjunction_distributes() {
        let v = voc();
        // exists t. P(t) & (Q(t) | R(t))  →  two disjuncts
        let e = QueryExpr::Exists(
            vec!["t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "t"),
                QueryExpr::Or(vec![
                    QueryExpr::atom1(p(&v, "Q"), "t"),
                    QueryExpr::atom1(p(&v, "R"), "t"),
                ]),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert_eq!(d.disjuncts.len(), 2);
        for cq in &d.disjuncts {
            assert_eq!(cq.proper.len(), 2);
            assert_eq!(cq.n_ord_vars, 1);
        }
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let v = voc();
        let e = QueryExpr::atom1(p(&v, "P"), "t");
        assert!(matches!(
            e.to_dnf(&v),
            Err(CoreError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn unsatisfiable_disjunct_dropped() {
        let v = voc();
        // exists s t. s < t & t < s   is unsatisfiable
        let e = QueryExpr::Exists(
            vec!["s".into(), "t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::lt("s", "t"),
                QueryExpr::lt("t", "s"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn n1_merges_le_cycle_variables() {
        let v = voc();
        // exists s t. s <= t & t <= s & P(s) & Q(t) — s,t identified.
        let e = QueryExpr::Exists(
            vec!["s".into(), "t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::le("s", "t"),
                QueryExpr::le("t", "s"),
                QueryExpr::atom1(p(&v, "P"), "s"),
                QueryExpr::atom1(p(&v, "Q"), "t"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        let cq = &d.disjuncts[0];
        assert_eq!(cq.n_ord_vars, 1);
        assert!(cq.order.is_empty());
        assert_eq!(cq.proper.len(), 2);
    }

    #[test]
    fn tightness_detects_order_only_variables() {
        let v = voc();
        // exists t1 t2 t3. P(t1) & t1 < t2 & t2 < t3 & P(t3): t2 not tight.
        let e = QueryExpr::Exists(
            vec!["t1".into(), "t2".into(), "t3".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "t1"),
                QueryExpr::lt("t1", "t2"),
                QueryExpr::lt("t2", "t3"),
                QueryExpr::atom1(p(&v, "P"), "t3"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert!(!d.is_tight());
        let full = d.disjuncts[0].to_full();
        let dropped = full.drop_order_only_vars();
        assert_eq!(dropped.n_ord_vars, 2);
        assert!(dropped.order.iter().any(|&(l, rel, r)| {
            rel == OrderRel::Lt && l != r // derived t1 < t3 survives
        }));
        assert!(DnfQuery::conjunctive(dropped).is_tight());
    }

    #[test]
    fn fullness_closure_on_paper_example() {
        // The paper's example: exists u v w. Q3(u,v,w) & u <= v & v <= w is
        // not full; closure adds u <= w. We emulate with monadic atoms.
        let v = voc();
        let e = QueryExpr::Exists(
            vec!["u".into(), "v".into(), "w".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "u"),
                QueryExpr::atom1(p(&v, "Q"), "v"),
                QueryExpr::atom1(p(&v, "R"), "w"),
                QueryExpr::le("u", "v"),
                QueryExpr::le("v", "w"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        let full = d.disjuncts[0].to_full();
        assert_eq!(full.order.len(), 3);
    }

    #[test]
    fn sequentiality() {
        let v = voc();
        // x < y <= z : sequential.
        let e = QueryExpr::Exists(
            vec!["x".into(), "y".into(), "z".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "x"),
                QueryExpr::lt("x", "y"),
                QueryExpr::atom1(p(&v, "P"), "y"),
                QueryExpr::le("y", "z"),
                QueryExpr::atom1(p(&v, "Q"), "z"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert!(d.disjuncts[0].is_sequential());
        // x < y, x < z (fork): not sequential.
        let e = QueryExpr::Exists(
            vec!["x".into(), "y".into(), "z".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "x"),
                QueryExpr::atom1(p(&v, "P"), "y"),
                QueryExpr::atom1(p(&v, "P"), "z"),
                QueryExpr::lt("x", "y"),
                QueryExpr::lt("x", "z"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert!(!d.disjuncts[0].is_sequential());
        assert_eq!(d.disjuncts[0].width(), 2);
    }

    #[test]
    fn ne_elimination_expands() {
        let v = voc();
        let e = QueryExpr::Exists(
            vec!["x".into(), "y".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "x"),
                QueryExpr::atom1(p(&v, "P"), "y"),
                QueryExpr::ne("x", "y"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        let expanded = d.disjuncts[0].eliminate_ne(16).unwrap();
        assert_eq!(expanded.len(), 2);
        for cq in &expanded {
            assert!(cq.order.iter().all(|(_, r, _)| *r == OrderRel::Lt));
        }
        // cap respected
        assert!(d.disjuncts[0].eliminate_ne(1).is_err());
    }

    #[test]
    fn constant_elimination_guards_constants() {
        let mut v = voc();
        let pp = p(&v, "P");
        let u = v.ord("u0");
        let db = Database::new();
        let e = QueryExpr::Exists(
            vec!["t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::Proper {
                    pred: pp,
                    args: vec![QTerm::Var("t".into())],
                },
                QueryExpr::Order {
                    lhs: QTerm::OrdConst(u),
                    rel: OrderRel::Lt,
                    rhs: QTerm::Var("t".into()),
                },
            ])),
        );
        let (db2, dnf) = eliminate_constants(&mut v, &db, &e).unwrap();
        assert_eq!(db2.proper_atoms().len(), 1); // the guard fact
        let cq = &dnf.disjuncts[0];
        assert_eq!(cq.n_ord_vars, 2);
        assert_eq!(cq.proper.len(), 2); // P(t) and the guard atom
        assert!(cq.is_tight());
    }

    #[test]
    fn display_renders() {
        let v = voc();
        let e = QueryExpr::Exists(
            vec!["s".into(), "t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "s"),
                QueryExpr::lt("s", "t"),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        let s = d.display(&v).to_string();
        assert!(s.contains("P(") && s.contains('<'));
        assert_eq!(DnfQuery::default().display(&v).to_string(), "false");
    }

    #[test]
    fn shadowing_quantifiers_are_distinct() {
        let v = voc();
        // exists t. P(t) & (exists t. Q(t)) — inner t distinct from outer.
        let e = QueryExpr::Exists(
            vec!["t".into()],
            Box::new(QueryExpr::And(vec![
                QueryExpr::atom1(p(&v, "P"), "t"),
                QueryExpr::Exists(
                    vec!["t".into()],
                    Box::new(QueryExpr::atom1(p(&v, "Q"), "t")),
                ),
            ])),
        );
        let d = e.to_dnf(&v).unwrap();
        assert_eq!(d.disjuncts[0].n_ord_vars, 2);
    }

    /// `(P(t0) | Q(t0)) & … & (P(tk) | Q(tk))` under one `exists`: `2^k`
    /// DNF disjuncts from a linear-size expression.
    fn product_of_disjunctions(v: &Vocabulary, k: usize) -> QueryExpr {
        let names: Vec<String> = (0..k).map(|i| format!("t{i}")).collect();
        let factors = names
            .iter()
            .map(|t| {
                QueryExpr::Or(vec![
                    QueryExpr::atom1(p(v, "P"), t),
                    QueryExpr::atom1(p(v, "Q"), t),
                ])
            })
            .collect();
        QueryExpr::Exists(names, Box::new(QueryExpr::And(factors)))
    }

    #[test]
    fn dnf_size_matches_the_built_dnf() {
        let v = voc();
        for k in 0..=6 {
            let e = product_of_disjunctions(&v, k);
            assert_eq!(e.dnf_size(), 1 << k);
            assert_eq!(e.to_dnf(&v).unwrap().disjuncts.len(), 1 << k);
        }
        let e = QueryExpr::Or(vec![product_of_disjunctions(&v, 2), QueryExpr::Or(vec![])]);
        assert_eq!(e.dnf_size(), 4);
        assert_eq!(e.to_dnf(&v).unwrap().disjuncts.len(), 4);
        // Saturates instead of overflowing.
        assert_eq!(product_of_disjunctions(&v, 200).dnf_size(), usize::MAX);
    }

    #[test]
    fn oversized_dnf_is_refused_before_it_is_built() {
        let v = voc();
        let at_cap = product_of_disjunctions(&v, 12);
        assert_eq!(at_cap.dnf_size(), MAX_DNF_DISJUNCTS);
        assert_eq!(
            at_cap.to_dnf(&v).unwrap().disjuncts.len(),
            MAX_DNF_DISJUNCTS
        );
        // Twenty conjoined two-way disjunctions: 2^20 disjuncts, about a
        // minute of work to build — refused before any is built.
        let start = std::time::Instant::now();
        let e = product_of_disjunctions(&v, 20).to_dnf(&v).unwrap_err();
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "{:?}",
            start.elapsed()
        );
        match e {
            CoreError::CapExceeded { what, limit } => {
                assert_eq!(limit, MAX_DNF_DISJUNCTS);
                assert!(what.contains("1048576"), "{what}");
            }
            other => panic!("expected CapExceeded, got {other:?}"),
        }
    }
}
