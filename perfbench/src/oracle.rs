//! The answer oracle: every served answer is compared bit for bit (seeds,
//! marginal gains, coverage, `theta_q`, and the printed influence)
//! against `KbtimIndex::query_rr` on a freshly opened index.

use crate::workload::Req;
use kbtim::serve::Json;
use kbtim_index::{KbtimIndex, QueryOutcome};
use kbtim_storage::IoStats;
use kbtim_topics::Query;
use std::collections::HashMap;
use std::path::Path;

/// The checked fields of one answer, plus the strategy counters the
/// per-layer metrics read.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub seeds: Vec<u64>,
    pub gains: Vec<u64>,
    pub coverage: u64,
    pub theta_q: u64,
    /// Bits of the influence as printed (six decimals).
    pub influence_bits: u64,
    pub rr_sets_loaded: u64,
    pub generation: Option<u64>,
    pub elapsed_us: u64,
}

impl Answer {
    /// The fields the oracle compares.
    pub fn same_as(&self, other: &Answer) -> bool {
        self.seeds == other.seeds
            && self.gains == other.gains
            && self.coverage == other.coverage
            && self.theta_q == other.theta_q
            && self.influence_bits == other.influence_bits
    }

    pub fn from_outcome(o: &QueryOutcome) -> Answer {
        let printed: f64 = format!("{:.6}", o.estimated_influence).parse().expect("printed f64");
        Answer {
            seeds: o.seeds.iter().map(|&s| s as u64).collect(),
            gains: o.marginal_gains.clone(),
            coverage: o.coverage,
            theta_q: o.stats.theta_q,
            influence_bits: printed.to_bits(),
            rr_sets_loaded: o.stats.rr_sets_loaded,
            generation: None,
            elapsed_us: o.stats.elapsed.as_micros() as u64,
        }
    }

    /// Parse a successful query response; `None` for error lines and
    /// anything malformed.
    pub fn parse(line: &str) -> Option<Answer> {
        let json = Json::parse(line).ok()?;
        if json.get("error").is_some() {
            return None;
        }
        let list = |key: &str| -> Option<Vec<u64>> {
            match json.get(key)? {
                Json::Arr(items) => items.iter().map(Json::as_u64).collect(),
                _ => None,
            }
        };
        let num = |key: &str| json.get(key).and_then(Json::as_u64);
        let influence = match json.get("estimated_influence")? {
            Json::Num(n) => *n,
            _ => return None,
        };
        Some(Answer {
            seeds: list("seeds")?,
            gains: list("marginal_gains")?,
            coverage: num("coverage")?,
            theta_q: num("theta_q")?,
            influence_bits: influence.to_bits(),
            rr_sets_loaded: num("rr_sets_loaded")?,
            generation: num("generation"),
            elapsed_us: num("elapsed_us")?,
        })
    }
}

/// A (keyword set, k) query and its expected answer.
type Expected = ((Vec<u32>, u32), Answer);

/// Open `dir` afresh and compute the expected answer of every distinct
/// (keyword set, k) in `reqs`, on up to `threads` threads.
pub fn expected_answers(
    dir: &Path,
    reqs: &[&Req],
    threads: usize,
) -> Result<HashMap<(Vec<u32>, u32), Answer>, String> {
    let index = KbtimIndex::open(dir, IoStats::new())
        .map_err(|e| format!("oracle open: {e}"))?
        .with_threads(Some(1));
    let mut distinct: Vec<(Vec<u32>, u32)> = reqs.iter().map(|r| (r.topics.clone(), r.k)).collect();
    distinct.sort();
    distinct.dedup();
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    let index = &index;
    let parts: Vec<Result<Vec<Expected>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(topics, k)| {
                            let q = Query::new(topics.iter().copied(), *k);
                            let o = index.query_rr(&q).map_err(|e| format!("oracle query: {e}"))?;
                            Ok(((topics.clone(), *k), Answer::from_outcome(&o)))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    let mut out = HashMap::new();
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_served_answer() {
        let line = r#"{"id":3,"algo":"rr","seeds":[5,9],"marginal_gains":[40,12],"coverage":52,"estimated_influence":12.500000,"theta_q":800,"rr_sets_loaded":800,"shards":1,"generation":4,"front_end":"epoll","elapsed_us":310}"#;
        let a = Answer::parse(line).unwrap();
        assert_eq!(a.seeds, vec![5, 9]);
        assert_eq!(a.coverage, 52);
        assert_eq!(a.generation, Some(4));
        assert_eq!(f64::from_bits(a.influence_bits), 12.5);
        assert!(Answer::parse(r#"{"id":3,"error":"x","code":"overloaded"}"#).is_none());
    }
}
