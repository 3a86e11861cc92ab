//! A small text syntax for databases and queries.
//!
//! ## Databases
//!
//! A database is a `;`-separated list of facts:
//!
//! ```text
//! IC(z1, z2, A); IC(z3, z4, B);
//! z1 < z2 < z3 < z4;          // order chains are sugar
//! u <= v; v != w;
//! ```
//!
//! Sort inference: a name that occurs in any order atom is an order
//! constant; other names are object constants unless an already-declared
//! predicate signature says otherwise. New predicates are declared on first
//! use with the inferred signature. Signatures can also be declared
//! explicitly:
//!
//! ```text
//! pred P(ord); pred Rel(obj, ord, ord);
//! ```
//!
//! ## Queries
//!
//! ```text
//! exists s t. P(s) & s < t & (Q(t) | R(t))
//! ```
//!
//! `&` binds tighter than `|`; parentheses group; `exists` may appear
//! nested. Names not bound by an `exists` are constants and must already be
//! interned in the vocabulary. Comparison chains (`s < t <= u`) are sugar
//! for conjunctions. Parentheses and `exists` binders nest at most
//! [`MAX_QUERY_DEPTH`] levels deep; deeper input is a parse error, so
//! the recursive descent can never exhaust its thread's stack.

use crate::atom::OrderRel;
use crate::database::Database;
use crate::error::{CoreError, Result, Span};
use crate::query::{eliminate_constants, DnfQuery, QTerm, QueryExpr};
use crate::sym::{Sort, Vocabulary};

/// Renders a caret diagnostic pointing a [`Span`] into `input`: the line
/// containing the span followed by `^^^` markers under the offending
/// bytes. Used by interactive surfaces (the REPL, the server's error
/// replies) to show *where* a parse failed, not just why.
pub fn caret_snippet(input: &str, span: Span) -> String {
    let start = span.start.min(input.len());
    let line_start = input[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let line_end = input[start..]
        .find('\n')
        .map(|i| start + i)
        .unwrap_or(input.len());
    let line = &input[line_start..line_end];
    let col = input[line_start..start].chars().count();
    let width = input[start..span.end.min(line_end).max(start)]
        .chars()
        .count()
        .max(1);
    format!("{line}\n{}{}", " ".repeat(col), "^".repeat(width))
}

/// How many levels of `(` and `exists` a query may nest. Far beyond any
/// query a person writes, and small enough that the recursive descent
/// (and the recursive passes over the resulting [`QueryExpr`]) stay
/// well inside a 2 MiB thread stack even in debug builds.
pub const MAX_QUERY_DEPTH: usize = 64;

/// Parses a database in the text syntax, interning symbols as needed.
pub fn parse_database(voc: &mut Vocabulary, input: &str) -> Result<Database> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    p.database(voc)
}

/// Parses a query; constants are eliminated against an empty database.
/// Use [`parse_query_with_db`] to obtain the matching augmented database.
pub fn parse_query(voc: &mut Vocabulary, input: &str) -> Result<DnfQuery> {
    let (_, q) = parse_query_with_db(voc, &Database::new(), input)?;
    Ok(q)
}

/// Parses a query that may mention constants, returning the augmented
/// database (with `P_u(u)` guard facts, §2) and the constant-free DNF.
pub fn parse_query_with_db(
    voc: &mut Vocabulary,
    db: &Database,
    input: &str,
) -> Result<(Database, DnfQuery)> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.query(voc)?;
    p.expect_eof()?;
    eliminate_constants(voc, db, &expr)
}

/// Parses a query to its raw [`QueryExpr`] (no constant elimination).
pub fn parse_query_expr(voc: &mut Vocabulary, input: &str) -> Result<QueryExpr> {
    parse_query_expr_in(voc, input)
}

/// [`parse_query_expr`] against a shared vocabulary: query parsing only
/// *reads* symbols (unknown predicates error; unknown names become
/// variables), so no `&mut` is needed — the per-request path of a
/// server can parse without cloning the vocabulary.
pub fn parse_query_expr_in(voc: &Vocabulary, input: &str) -> Result<QueryExpr> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.query(voc)?;
    p.expect_eof()?;
    Ok(expr)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Dot,
    Amp,
    Pipe,
    Lt,
    Le,
    Ne,
    Exists,
    Eof,
}

fn lex(input: &str) -> Result<Vec<(Tok, Span)>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Decode a full char (UTF-8-safe): byte-wise classification
        // would split multi-byte codepoints and panic on the slice.
        let c = input[i..].chars().next().expect("i is a char boundary");
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push((Tok::LParen, Span::point(i)));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, Span::point(i)));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, Span::point(i)));
                i += 1;
            }
            ';' => {
                out.push((Tok::Semi, Span::point(i)));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, Span::point(i)));
                i += 1;
            }
            '&' => {
                out.push((Tok::Amp, Span::point(i)));
                i += 1;
            }
            '|' => {
                out.push((Tok::Pipe, Span::point(i)));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Le, Span::new(i, i + 2)));
                    i += 2;
                } else {
                    out.push((Tok::Lt, Span::point(i)));
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ne, Span::new(i, i + 2)));
                    i += 2;
                } else {
                    return Err(CoreError::Parse {
                        span: Span::point(i),
                        message: "expected `!=`".to_string(),
                    });
                }
            }
            _ if c.is_alphanumeric() || c == '_' || c == '$' => {
                let start = i;
                while i < bytes.len() {
                    let d = input[i..].chars().next().expect("i is a char boundary");
                    if d.is_alphanumeric() || d == '_' || d == '$' {
                        i += d.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &input[start..i];
                let span = Span::new(start, i);
                if word == "exists" {
                    out.push((Tok::Exists, span));
                } else {
                    out.push((Tok::Ident(word.to_string()), span));
                }
            }
            _ => {
                return Err(CoreError::Parse {
                    span: Span::new(i, i + c.len_utf8()),
                    message: format!("unexpected character `{c}`"),
                })
            }
        }
    }
    // Empty span at the end: callers can slice the source by any span
    // the parser reports (`&input[span.start..span.end]` never panics).
    out.push((Tok::Eof, Span::new(input.len(), input.len())));
    Ok(out)
}

struct Parser {
    tokens: Vec<(Tok, Span)>,
    pos: usize,
}

/// An atom as parsed, before sort resolution.
#[derive(Debug, Clone)]
enum RawFact {
    Proper {
        pred: String,
        args: Vec<String>,
    },
    Order {
        lhs: String,
        rel: OrderRel,
        rhs: String,
    },
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].0
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].0.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<()> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.err("expected end of input"))
        }
    }

    fn err(&self, msg: &str) -> CoreError {
        CoreError::Parse {
            span: self.span(),
            message: msg.to_string(),
        }
    }

    fn ident(&mut self) -> Result<String> {
        let span = self.span();
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            _ => Err(CoreError::Parse {
                span,
                message: "expected identifier".to_string(),
            }),
        }
    }

    fn rel(&mut self) -> Option<OrderRel> {
        match self.peek() {
            Tok::Lt => {
                self.bump();
                Some(OrderRel::Lt)
            }
            Tok::Le => {
                self.bump();
                Some(OrderRel::Le)
            }
            Tok::Ne => {
                self.bump();
                Some(OrderRel::Ne)
            }
            _ => None,
        }
    }

    // ---- database -------------------------------------------------------

    fn database(&mut self, voc: &mut Vocabulary) -> Result<Database> {
        let mut raw: Vec<RawFact> = Vec::new();
        while *self.peek() != Tok::Eof {
            if self.peek_is_decl() {
                self.declaration(voc)?;
            } else {
                self.fact(&mut raw)?;
            }
            if *self.peek() == Tok::Semi {
                self.bump();
            } else if *self.peek() != Tok::Eof {
                return Err(self.err("expected `;` between facts"));
            }
        }
        // Pass 1: names in order atoms are order constants.
        let mut order_names: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for f in &raw {
            if let RawFact::Order { lhs, rhs, .. } = f {
                order_names.insert(lhs);
                order_names.insert(rhs);
            }
        }
        // Names at positions with known Order signatures are order too;
        // iterate to a fixpoint (signatures can come from the vocabulary or
        // from earlier facts in this database — one extra pass suffices for
        // practical inputs, so loop until stable).
        loop {
            let mut changed = false;
            for f in &raw {
                if let RawFact::Proper { pred, args } = f {
                    if let Some(p) = voc.find_pred(pred) {
                        let sig = voc.signature(p).clone();
                        if sig.arity() == args.len() {
                            for (a, &s) in args.iter().zip(&sig.arg_sorts) {
                                if s == Sort::Order && order_names.insert(a) {
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            // Declare any new predicates using current knowledge.
            for f in &raw {
                if let RawFact::Proper { pred, args } = f {
                    if voc.find_pred(pred).is_none() {
                        let sorts: Vec<Sort> = args
                            .iter()
                            .map(|a| {
                                if order_names.contains(a.as_str()) {
                                    Sort::Order
                                } else {
                                    Sort::Object
                                }
                            })
                            .collect();
                        voc.pred(pred, &sorts)?;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Pass 2: build.
        let mut db = Database::new();
        for f in &raw {
            match f {
                RawFact::Proper { pred, args } => {
                    let p = voc.find_pred(pred).expect("declared above");
                    let sig = voc.signature(p).clone();
                    if sig.arity() != args.len() {
                        return Err(CoreError::ArityMismatch {
                            pred: pred.clone(),
                            expected: sig.arity(),
                            found: args.len(),
                        });
                    }
                    let mut terms = Vec::with_capacity(args.len());
                    for (a, &s) in args.iter().zip(&sig.arg_sorts) {
                        let t = match s {
                            Sort::Order => crate::atom::Term::Ord(voc.ord(a)),
                            Sort::Object => {
                                if order_names.contains(a.as_str()) {
                                    return Err(CoreError::SortMismatch {
                                        pred: pred.clone(),
                                        position: args.iter().position(|x| x == a).unwrap_or(0),
                                        expected: Sort::Object,
                                    });
                                }
                                crate::atom::Term::Obj(voc.obj(a))
                            }
                        };
                        terms.push(t);
                    }
                    db.push_proper(crate::atom::ProperAtom {
                        pred: p,
                        args: terms,
                    });
                }
                RawFact::Order { lhs, rel, rhs } => {
                    let l = voc.ord(lhs);
                    let r = voc.ord(rhs);
                    db.order_push(*rel, l, r);
                }
            }
        }
        Ok(db)
    }

    /// `pred NAME(sorts)` lookahead: `pred` followed by an identifier.
    fn peek_is_decl(&self) -> bool {
        matches!(&self.tokens[self.pos].0, Tok::Ident(s) if s == "pred")
            && matches!(
                &self.tokens.get(self.pos + 1).map(|t| &t.0),
                Some(Tok::Ident(_))
            )
    }

    /// Parses `pred NAME(ord, obj, ...)`.
    fn declaration(&mut self, voc: &mut Vocabulary) -> Result<()> {
        self.bump(); // `pred`
        let name = self.ident()?;
        self.expect(Tok::LParen, "`(`")?;
        let mut sorts = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let s = self.ident()?;
                match s.as_str() {
                    "ord" | "order" => sorts.push(Sort::Order),
                    "obj" | "object" => sorts.push(Sort::Object),
                    _ => {
                        return Err(self.err("expected sort `ord` or `obj`"));
                    }
                }
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        voc.pred(&name, &sorts)?;
        Ok(())
    }

    fn fact(&mut self, out: &mut Vec<RawFact>) -> Result<()> {
        let first = self.ident()?;
        if *self.peek() == Tok::LParen {
            self.bump();
            let mut args = Vec::new();
            if *self.peek() != Tok::RParen {
                loop {
                    args.push(self.ident()?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "`)`")?;
            out.push(RawFact::Proper { pred: first, args });
            Ok(())
        } else {
            // order chain: a (rel b)+
            let mut prev = first;
            let mut any = false;
            while let Some(rel) = self.rel() {
                let next = self.ident()?;
                out.push(RawFact::Order {
                    lhs: prev.clone(),
                    rel,
                    rhs: next.clone(),
                });
                prev = next;
                any = true;
            }
            if !any {
                return Err(self.err("expected `(` or an order relation"));
            }
            Ok(())
        }
    }

    // ---- query ----------------------------------------------------------

    fn query(&mut self, voc: &Vocabulary) -> Result<QueryExpr> {
        self.disjunction(voc, 0)
    }

    /// `depth` counts the `(`/`exists` levels enclosing this point; see
    /// [`Parser::nest`].
    fn disjunction(&mut self, voc: &Vocabulary, depth: usize) -> Result<QueryExpr> {
        let mut parts = vec![self.conjunction(voc, depth)?];
        while *self.peek() == Tok::Pipe {
            self.bump();
            parts.push(self.conjunction(voc, depth)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            QueryExpr::Or(parts)
        })
    }

    fn conjunction(&mut self, voc: &Vocabulary, depth: usize) -> Result<QueryExpr> {
        let mut parts = vec![self.primary(voc, depth)?];
        while *self.peek() == Tok::Amp {
            self.bump();
            parts.push(self.primary(voc, depth)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            QueryExpr::And(parts)
        })
    }

    /// The depth one level inside the `(` or `exists` at the cursor, or
    /// a parse error pointing at it once [`MAX_QUERY_DEPTH`] is reached.
    fn nest(&self, depth: usize) -> Result<usize> {
        if depth >= MAX_QUERY_DEPTH {
            return Err(self.err(&format!(
                "query nests deeper than {MAX_QUERY_DEPTH} levels of `(` / `exists`"
            )));
        }
        Ok(depth + 1)
    }

    fn primary(&mut self, voc: &Vocabulary, depth: usize) -> Result<QueryExpr> {
        match self.peek().clone() {
            Tok::Exists => {
                let inner = self.nest(depth)?;
                self.bump();
                let mut vars = vec![self.ident()?];
                while matches!(self.peek(), Tok::Ident(_)) {
                    vars.push(self.ident()?);
                }
                self.expect(Tok::Dot, "`.` after exists variables")?;
                // Scope of exists extends over a disjunction body.
                let body = self.disjunction(voc, inner)?;
                Ok(QueryExpr::Exists(vars, Box::new(body)))
            }
            Tok::LParen => {
                let inner = self.nest(depth)?;
                self.bump();
                let e = self.disjunction(voc, inner)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(_) => {
                let name_span = self.span();
                let name = self.ident()?;
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.ident()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    let pred = voc.find_pred(&name).ok_or_else(|| CoreError::Parse {
                        span: name_span,
                        message: format!(
                            "unknown predicate `{name}` in query (declare it via a database first)"
                        ),
                    })?;
                    let sig = voc.signature(pred).clone();
                    if sig.arity() != args.len() {
                        return Err(CoreError::ArityMismatch {
                            pred: name,
                            expected: sig.arity(),
                            found: args.len(),
                        });
                    }
                    let qargs = args
                        .iter()
                        .zip(&sig.arg_sorts)
                        .map(|(a, &s)| self.qterm(voc, a, Some(s)))
                        .collect::<Result<Vec<_>>>()?;
                    Ok(QueryExpr::Proper { pred, args: qargs })
                } else {
                    // order comparison chain
                    let mut atoms = Vec::new();
                    let mut prev = name;
                    let mut any = false;
                    while let Some(rel) = self.rel() {
                        let next = self.ident()?;
                        let l = self.qterm(voc, &prev, Some(Sort::Order))?;
                        let r = self.qterm(voc, &next, Some(Sort::Order))?;
                        atoms.push(QueryExpr::Order {
                            lhs: l,
                            rel,
                            rhs: r,
                        });
                        prev = next;
                        any = true;
                    }
                    if !any {
                        return Err(self.err("expected `(` or an order relation"));
                    }
                    Ok(if atoms.len() == 1 {
                        atoms.pop().unwrap()
                    } else {
                        QueryExpr::And(atoms)
                    })
                }
            }
            _ => Err(self.err("expected atom, `(`, or `exists`")),
        }
    }

    /// Resolves a query term name: a known constant of matching sort, or a
    /// variable (binding is checked later during DNF conversion).
    fn qterm(&mut self, voc: &Vocabulary, name: &str, sort: Option<Sort>) -> Result<QTerm> {
        match sort {
            Some(Sort::Object) => {
                if let Some(o) = voc.find_obj(name) {
                    return Ok(QTerm::ObjConst(o));
                }
            }
            Some(Sort::Order) => {
                if let Some(u) = voc.find_ord(name) {
                    return Ok(QTerm::OrdConst(u));
                }
            }
            None => {}
        }
        Ok(QTerm::Var(name.to_string()))
    }
}

impl Database {
    /// Internal helper used by the parser.
    fn order_push(&mut self, rel: OrderRel, l: crate::sym::OrdSym, r: crate::sym::OrdSym) {
        match rel {
            OrderRel::Lt => self.assert_lt(l, r),
            OrderRel::Le => self.assert_le(l, r),
            OrderRel::Ne => self.assert_ne(l, r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_database() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); Q(v); u < v;").unwrap();
        assert_eq!(db.proper_atoms().len(), 2);
        assert_eq!(db.order_atoms().len(), 1);
        assert!(voc.all_monadic_order());
    }

    #[test]
    fn order_chain_sugar() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "z1 < z2 <= z3 != z4;").unwrap();
        assert_eq!(db.order_atoms().len(), 3);
        assert_eq!(db.order_atoms()[1].rel, OrderRel::Le);
        assert_eq!(db.order_atoms()[2].rel, OrderRel::Ne);
    }

    #[test]
    fn mixed_sorts_inferred() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "IC(z1, z2, A); z1 < z2;").unwrap();
        let ic = voc.find_pred("IC").unwrap();
        assert_eq!(
            voc.signature(ic).arg_sorts,
            vec![Sort::Order, Sort::Order, Sort::Object]
        );
        assert_eq!(db.object_constants().len(), 1);
    }

    #[test]
    fn signature_reuse_across_facts() {
        let mut voc = Vocabulary::new();
        // First fact fixes the signature (u ordered), second fact's `w`
        // must then be an order constant even without its own order atom.
        let db = parse_database(&mut voc, "P(u); u < v; P(w);").unwrap();
        assert_eq!(db.order_constant_count(), 3);
    }

    #[test]
    fn parse_query_basic() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "pred P(ord); pred Q(ord);").unwrap();
        let q = parse_query(&mut voc, "exists s t. P(s) & s < t & Q(t)").unwrap();
        assert_eq!(q.disjuncts().len(), 1);
        assert!(q.is_tight());
    }

    #[test]
    fn parse_query_disjunction_precedence() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "P(u); Q(u); R(u);").unwrap();
        let q = parse_query(&mut voc, "exists t. P(t) & Q(t) | exists t. R(t)").unwrap();
        assert_eq!(q.disjuncts().len(), 2);
        assert_eq!(q.disjuncts()[0].proper.len(), 2);
        assert_eq!(q.disjuncts()[1].proper.len(), 1);
    }

    #[test]
    fn parse_query_chain_and_parens() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "pred P(ord);").unwrap();
        let q = parse_query(&mut voc, "exists a b c. P(a) & a < b <= c & (P(b) | P(c))").unwrap();
        assert_eq!(q.disjuncts().len(), 2);
    }

    #[test]
    fn query_constants_are_guarded() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "P(u); u < v; P(v);").unwrap();
        let (db2, q) = parse_query_with_db(&mut voc, &db, "exists t. P(t) & u < t").unwrap();
        // guard fact for `u` was added
        assert_eq!(db2.proper_atoms().len(), db.proper_atoms().len() + 1);
        assert!(q.is_tight());
    }

    #[test]
    fn unknown_predicate_in_query_errors() {
        let mut voc = Vocabulary::new();
        let e = parse_query(&mut voc, "exists t. Zap(t)").unwrap_err();
        assert!(matches!(e, CoreError::Parse { .. }));
    }

    #[test]
    fn lex_errors_have_spans() {
        let mut voc = Vocabulary::new();
        let e = parse_database(&mut voc, "P(u) @").unwrap_err();
        match e {
            CoreError::Parse { span, .. } => assert_eq!(span, Span::point(5)),
            _ => panic!("expected parse error"),
        }
    }

    #[test]
    fn malformed_fact_lines_point_at_the_offending_token() {
        let mut voc = Vocabulary::new();
        // Missing `;` between facts: the span covers the token that
        // should have been a separator — the full `Q` identifier.
        let input = "P(u) Q(v);";
        let e = parse_database(&mut voc, input).unwrap_err();
        assert_eq!(e.span(), Some(Span::new(5, 6)));
        // A dangling order relation points at the end of input (an
        // empty span — still sliceable: `&input[3..3]` is valid).
        let input = "u <";
        let e = parse_database(&mut voc, input).unwrap_err();
        assert_eq!(e.span(), Some(Span::new(3, 3)));
        assert_eq!(&input[3..3], "");
        // An identifier where `(` or a relation must follow spans the
        // unexpected token, not the statement start.
        let input = "P(u); lonely;";
        let e = parse_database(&mut voc, input).unwrap_err();
        assert_eq!(e.span(), Some(Span::point(12)));
    }

    #[test]
    fn malformed_query_lines_point_at_the_offending_token() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "pred P(ord);").unwrap();
        // Unknown predicate: the span covers the predicate name, even
        // though resolution happens after the argument list is consumed.
        let input = "exists t. Zap(t)";
        let e = parse_query(&mut voc, input).unwrap_err();
        assert_eq!(e.span(), Some(Span::new(10, 13)));
        assert_eq!(&input[10..13], "Zap");
        // Missing `.` after the exists binder: `P` is swallowed as a
        // variable, so the error points at the `(` that follows.
        let input = "exists t P(t)";
        let e = parse_query(&mut voc, input).unwrap_err();
        assert_eq!(e.span(), Some(Span::new(10, 11)));
        // Trailing garbage after a complete query.
        let input = "exists t. P(t) P(t)";
        let e = parse_query(&mut voc, input).unwrap_err();
        assert_eq!(e.span(), Some(Span::new(15, 16)));
    }

    #[test]
    fn nesting_past_the_depth_cap_is_a_spanned_parse_error() {
        let mut voc = Vocabulary::new();
        parse_database(&mut voc, "pred P(ord);").unwrap();
        // Exactly at the cap: accepted.
        let ok = format!(
            "{}exists t. P(t){}",
            "(".repeat(MAX_QUERY_DEPTH - 1),
            ")".repeat(MAX_QUERY_DEPTH - 1)
        );
        assert!(parse_query_expr_in(&voc, &ok).is_ok());
        // One level deeper: refused at the `exists` that opens it.
        let over = format!(
            "{}exists t. P(t){}",
            "(".repeat(MAX_QUERY_DEPTH),
            ")".repeat(MAX_QUERY_DEPTH)
        );
        let e = parse_query_expr_in(&voc, &over).unwrap_err();
        assert!(matches!(e, CoreError::Parse { .. }), "{e:?}");
        assert_eq!(
            e.span(),
            Some(Span::new(MAX_QUERY_DEPTH, MAX_QUERY_DEPTH + 6))
        );
        // 10,000 levels would overflow a 2 MiB worker stack without the
        // cap; they are refused even on a thread with half of one.
        let deep = format!("{}P(t)", "(".repeat(10_000));
        let nested_exists = "exists t. ".repeat(10_000) + "P(t)";
        std::thread::Builder::new()
            .stack_size(1024 * 1024)
            .spawn(move || {
                for text in [deep, nested_exists] {
                    let e = parse_query_expr_in(&voc, &text).unwrap_err();
                    assert!(e.to_string().contains("nests deeper"), "{e}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn non_ascii_input_lexes_without_panicking() {
        // Regression: the lexer used to classify bytes as chars and
        // slice mid-codepoint on multi-byte input — a panic reachable
        // from untrusted wire input. Alphanumeric unicode is a valid
        // identifier character; anything else errors with a
        // codepoint-wide span.
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); P(é);").unwrap();
        assert_eq!(db.proper_atoms().len(), 1);
        let e = parse_database(&mut voc, "P(u) €").unwrap_err();
        assert_eq!(e.span(), Some(Span::new(5, 8)), "euro sign is 3 bytes");
        // Slicing the input by the reported span is always valid.
        let input = "P(u) €";
        assert_eq!(&input[5..8], "€");
        // And the parser-never-panics property holds for char soup.
        let _ = parse_database(&mut voc, "héllo wörld ∀x");
        let _ = parse_query(&mut voc, "exists t. ¬P(t)");
    }

    #[test]
    fn caret_snippet_points_at_the_span() {
        let input = "P(u); lonely;";
        let mut voc = Vocabulary::new();
        let e = parse_database(&mut voc, input).unwrap_err();
        let snippet = caret_snippet(input, e.span().unwrap());
        assert_eq!(snippet, "P(u); lonely;\n            ^");
        // Multi-byte-safe: spans past the end clamp instead of panicking.
        assert!(caret_snippet("ab", Span::new(5, 9)).ends_with('^'));
        // Multi-line input: only the offending line is shown.
        let input = "P(u);\nQ(v) @";
        let e = parse_database(&mut voc, input).unwrap_err();
        let snippet = caret_snippet(input, e.span().unwrap());
        assert_eq!(snippet, "Q(v) @\n     ^");
    }

    #[test]
    fn comments_are_skipped() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "// the guard's log\nP(u); // trailing\nu < v;").unwrap();
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn bad_bang_is_an_error() {
        let mut voc = Vocabulary::new();
        assert!(parse_database(&mut voc, "u ! v;").is_err());
    }

    #[test]
    fn explicit_declarations() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "pred P(ord); pred E(obj, ord); P(u); E(a, u);").unwrap();
        assert_eq!(db.proper_atoms().len(), 2);
        let e = voc.find_pred("E").unwrap();
        assert_eq!(voc.signature(e).arg_sorts, vec![Sort::Object, Sort::Order]);
        // conflicting redeclaration errors
        assert!(parse_database(&mut voc, "pred P(obj);").is_err());
    }

    #[test]
    fn nullary_predicates_parse() {
        let mut voc = Vocabulary::new();
        let db = parse_database(&mut voc, "Flag();").unwrap();
        assert_eq!(db.proper_atoms().len(), 1);
        let f = voc.find_pred("Flag").unwrap();
        assert_eq!(voc.signature(f).arity(), 0);
    }
}
