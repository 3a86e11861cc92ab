//! The answer check. Every query is positive existential and every write
//! only adds facts, so a query's certainty can only go from not-certain
//! to certain as facts are added: a served verdict must lie between the
//! verdict on the start state (the bulk load) and the verdict on the end
//! state (the load plus the writes of every round, a superset of what
//! any round's server holds). Both are computed here, in-process, with
//! the unprepared `Engine::entails` path.

use crate::gen::{Kind, Workload};
use indord_core::parse::{parse_database, parse_query};
use indord_core::sym::Vocabulary;
use indord_entail::Engine;

/// Per-query verdicts on the start and the end state.
pub struct Bracket {
    pub start: Vec<bool>,
    pub end: Vec<bool>,
}

impl Bracket {
    pub fn compute(w: &Workload) -> Result<Bracket, String> {
        let writes: Vec<&str> = w
            .rounds
            .iter()
            .flatten()
            .filter(|r| r.kind == Kind::Write)
            .map(|r| r.fragment())
            .collect();
        let start = verdicts(w, &[])?;
        let end = if writes.is_empty() {
            start.clone()
        } else {
            verdicts(w, &writes)?
        };
        Ok(Bracket { start, end })
    }

    /// True when `served` is a verdict query `q` can have somewhere
    /// along the stream: certain only if certain at the end, not
    /// certain only if not certain at the start.
    pub fn admits(&self, q: usize, served: bool) -> bool {
        if served {
            self.end[q]
        } else {
            !self.start[q]
        }
    }
}

fn verdicts(w: &Workload, extra: &[&str]) -> Result<Vec<bool>, String> {
    let mut voc = Vocabulary::new();
    let mut text = w.load.join("\n");
    for frag in extra {
        text.push('\n');
        text.push_str(frag);
    }
    let db = parse_database(&mut voc, &text).map_err(|e| format!("oracle load: {e}"))?;
    let mut parsed = Vec::with_capacity(w.queries.len());
    for q in &w.queries {
        parsed.push(parse_query(&mut voc, q).map_err(|e| format!("oracle query `{q}`: {e}"))?);
    }
    let eng = Engine::new(&voc);
    parsed
        .iter()
        .zip(&w.queries)
        .map(|(q, text)| {
            eng.entails(&db, q)
                .map(|v| v.holds())
                .map_err(|e| format!("oracle verdict of `{text}`: {e}"))
        })
        .collect()
}

/// True when a `COUNTERMODEL` reply block is well framed: the header, a
/// non-empty body, and `END`.
pub fn framed(block: &[String]) -> bool {
    block.len() >= 3
        && block[0] == "COUNTERMODEL"
        && block.last().is_some_and(|l| l == "END")
        && block[1..block.len() - 1]
            .iter()
            .any(|l| !l.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_may_only_rise_along_the_stream() {
        let b = Bracket {
            start: vec![false, false, true],
            end: vec![false, true, true],
        };
        assert!(b.admits(0, false) && !b.admits(0, true));
        assert!(b.admits(1, false) && b.admits(1, true));
        assert!(!b.admits(2, false) && b.admits(2, true));
    }

    #[test]
    fn countermodel_blocks_need_a_body_and_an_end() {
        let block = |ls: &[&str]| ls.iter().map(|l| l.to_string()).collect::<Vec<_>>();
        assert!(framed(&block(&["COUNTERMODEL", "word: {P0}", "END"])));
        assert!(!framed(&block(&["COUNTERMODEL", "END"])));
        assert!(!framed(&block(&["COUNTERMODEL", "word: {P0}"])));
    }
}
