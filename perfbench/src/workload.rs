//! The three workloads: dataset shape, server flags, rates, and the
//! seeded request streams. The same seed gives the same dataset and the
//! same streams.

use std::collections::HashSet;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotMix,
    ColdWide,
    IngestMix,
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub users: u32,
    pub topics: u32,
    /// θ cap per keyword (`kbtim build --cap`).
    pub cap: u64,
    /// Flags passed to `kbtim serve` besides `--index` / `--listen`
    /// (ingest-mix adds `--data`, `--cap` and `--seed` at run time).
    pub server_flags: &'static [&'static str],
    /// Open-loop mutation rate (ingest-mix only), per second.
    pub mutation_rate: f64,
    /// A `flush` follows every this many mutations (ingest-mix only).
    pub flush_every: u32,
    /// Rung `i` of the SLO ladder offers `ladder_base · 2^(i/16)` qps;
    /// the nominal phase runs at rung [`NOMINAL_RUNG`], well below
    /// capacity.
    pub ladder_base: f64,
    /// First rung the ladder probes above the nominal one.
    pub ladder_start: u32,
    /// Highest rung index the ladder may probe.
    pub ladder_top: u32,
    /// p99 latency limit of the SLO, milliseconds.
    pub limit_ms: f64,
}

pub const WORKLOADS: &[&str] = &["hot-mix", "cold-wide", "ingest-mix"];

/// The nominal phase's rung: four times the ladder base.
pub const NOMINAL_RUNG: u32 = 32;

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "hot-mix" => Spec {
                name: "hot-mix",
                kind: Kind::HotMix,
                users: 100_000,
                topics: 16,
                cap: 4000,
                server_flags: &["--merge-cache", "64"],
                mutation_rate: 0.0,
                flush_every: 0,
                ladder_base: 250.0,
                ladder_start: 80,
                ladder_top: 112,
                limit_ms: 20.0,
            },
            "cold-wide" => Spec {
                name: "cold-wide",
                kind: Kind::ColdWide,
                users: 1_000_000,
                topics: 16,
                cap: 4000,
                server_flags: &["--merge-cache", "64"],
                mutation_rate: 0.0,
                flush_every: 0,
                ladder_base: 25.0,
                ladder_start: 48,
                ladder_top: 80,
                limit_ms: 100.0,
            },
            "ingest-mix" => Spec {
                name: "ingest-mix",
                kind: Kind::IngestMix,
                users: 20_000,
                topics: 8,
                cap: 4000,
                server_flags: &["--merge-cache", "64"],
                mutation_rate: 2.0,
                flush_every: 6,
                ladder_base: 250.0,
                ladder_start: 80,
                ladder_top: 112,
                limit_ms: 100.0,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The ladder rate of rung `i`.
    pub fn rung_qps(&self, i: u32) -> f64 {
        self.ladder_base * 2f64.powf(i as f64 / 16.0)
    }

    /// The open-loop query rate of the nominal phase.
    pub fn nominal_qps(&self) -> f64 {
        self.rung_qps(NOMINAL_RUNG)
    }
}

/// SplitMix64: a small seeded generator, so streams depend on the seed
/// alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One influence query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    /// Sorted, distinct.
    pub topics: Vec<u32>,
    pub k: u32,
    pub algo: &'static str,
}

impl Req {
    pub fn line(&self, id: u64) -> String {
        let topics: Vec<String> = self.topics.iter().map(u32::to_string).collect();
        format!(
            "{{\"id\":{id},\"topics\":[{}],\"k\":{},\"algo\":\"{}\"}}",
            topics.join(","),
            self.k,
            self.algo
        )
    }
}

/// One write on the ingest-mix mutation connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Write {
    SetTopicWeight { user: u32, topic: u32, weight: f32 },
    IngestEdge { from: u32, to: u32 },
    IngestUser,
    Flush,
}

impl Write {
    pub fn verb(&self) -> &'static str {
        match self {
            Write::SetTopicWeight { .. } => "set_topic_weight",
            Write::IngestEdge { .. } => "ingest_edge",
            Write::IngestUser => "ingest_user",
            Write::Flush => "flush",
        }
    }

    pub fn line(&self, id: u64) -> String {
        match *self {
            Write::SetTopicWeight { user, topic, weight } => format!(
                "{{\"id\":{id},\"op\":\"set_topic_weight\",\"user\":{user},\"topic\":{topic},\"weight\":{weight}}}"
            ),
            Write::IngestEdge { from, to } => {
                format!("{{\"id\":{id},\"op\":\"ingest_edge\",\"from\":{from},\"to\":{to}}}")
            }
            Write::IngestUser | Write::Flush => {
                format!("{{\"id\":{id},\"op\":\"{}\"}}", self.verb())
            }
        }
    }
}

/// The seeded query stream of a workload. Draws continue across phases,
/// so cold-wide never repeats a keyword set within a run.
pub struct QueryStream {
    kind: Kind,
    rng: Rng,
    /// Hot keyword sets with their cumulative Zipf weights.
    hot: Vec<(Vec<u32>, f64)>,
    /// Cold keyword sets, shuffled; consumed front to back.
    cold: Vec<Vec<u32>>,
    next_cold: usize,
}

/// Number of hot keyword sets (fits a 64-entry merge cache).
pub const HOT_SETS: usize = 12;
const HOT_SETS_SEED: u64 = 0x4807_5E75;

impl QueryStream {
    pub fn new(spec: &Spec, seed: u64) -> QueryStream {
        let mut rng = Rng::new(seed ^ 0x005E_ED0F_0E11);
        let mut hot = Vec::new();
        let mut cold = Vec::new();
        match spec.kind {
            Kind::HotMix | Kind::IngestMix => {
                // The advertisers' keyword sets are part of the workload's
                // definition, fixed across seeds (sizes 2, 3, 4 by rank):
                // the seed varies the dataset and the request sequence,
                // not which sets are hot.
                let mut pick = Rng::new(HOT_SETS_SEED);
                let mut seen = HashSet::new();
                while hot.len() < HOT_SETS {
                    let size = 2 + hot.len() % 3;
                    let mut set: Vec<u32> = Vec::new();
                    while set.len() < size {
                        let t = pick.below(spec.topics as u64) as u32;
                        if !set.contains(&t) {
                            set.push(t);
                        }
                    }
                    set.sort_unstable();
                    if seen.insert(set.clone()) {
                        // Zipf(1) over popularity rank.
                        hot.push((set, 1.0 / (hot.len() + 1) as f64));
                    }
                }
                let total: f64 = hot.iter().map(|(_, w)| w).sum();
                let mut acc = 0.0;
                for entry in &mut hot {
                    acc += entry.1 / total;
                    entry.1 = acc;
                }
            }
            Kind::ColdWide => {
                for size in 3..=5 {
                    combinations(spec.topics, size, &mut Vec::new(), 0, &mut cold);
                }
                for i in (1..cold.len()).rev() {
                    cold.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
        }
        QueryStream { kind: spec.kind, rng, hot, cold, next_cold: 0 }
    }

    /// Requests left before cold-wide would have to repeat a keyword set.
    pub fn cold_left(&self) -> usize {
        self.cold.len() - self.next_cold
    }

    pub fn next_req(&mut self) -> Req {
        match self.kind {
            Kind::HotMix | Kind::IngestMix => {
                let u = self.rng.unit();
                let i = self.hot.iter().position(|(_, c)| u < *c).unwrap_or(self.hot.len() - 1);
                let k = [5, 10, 25][self.rng.below(3) as usize];
                let algo = ["rr", "irr", "auto"][self.rng.below(3) as usize];
                Req { topics: self.hot[i].0.clone(), k, algo }
            }
            Kind::ColdWide => {
                let topics = self.cold[self.next_cold % self.cold.len()].clone();
                self.next_cold += 1;
                let k = [10, 25, 50][self.rng.below(3) as usize];
                let algo = ["rr", "irr"][self.rng.below(2) as usize];
                Req { topics, k, algo }
            }
        }
    }

    /// The hot keyword sets (empty for cold-wide).
    pub fn hot_sets(&self) -> Vec<Vec<u32>> {
        self.hot.iter().map(|(s, _)| s.clone()).collect()
    }
}

fn combinations(n: u32, size: usize, cur: &mut Vec<u32>, from: u32, out: &mut Vec<Vec<u32>>) {
    if cur.len() == size {
        out.push(cur.clone());
        return;
    }
    for t in from..n {
        cur.push(t);
        combinations(n, size, cur, t + 1, out);
        cur.pop();
    }
}

/// The seeded mutation stream of ingest-mix: 60% `set_topic_weight`,
/// 30% `ingest_edge`, 10% `ingest_user`, and a `flush` after every
/// `flush_every` mutations. Every write is valid against the universe it
/// lands in.
pub struct WriteStream {
    rng: Rng,
    users: u32,
    topics: u32,
    flush_every: u32,
    since_flush: u32,
    written: usize,
}

impl WriteStream {
    pub fn new(spec: &Spec, seed: u64) -> WriteStream {
        WriteStream {
            rng: Rng::new(seed ^ 0x0037_17E5),
            users: spec.users,
            topics: spec.topics,
            flush_every: spec.flush_every,
            since_flush: 0,
            written: 0,
        }
    }

    pub fn next_write(&mut self) -> Write {
        if self.since_flush == self.flush_every {
            self.since_flush = 0;
            return Write::Flush;
        }
        self.since_flush += 1;
        // The verbs follow a fixed cycle of ten (six weight updates, three
        // edges, one user), so heavy and light writes land at the same
        // times under every seed; only their arguments are drawn.
        let roll = [0, 6, 1, 2, 7, 3, 9, 4, 8, 5][self.written % 10];
        self.written += 1;
        if roll < 6 {
            let user = self.rng.below(self.users as u64) as u32;
            let topic = self.rng.below(self.topics as u64) as u32;
            // Multiples of 1/8: exact in f32 and in the decimal wire form.
            let weight = (1 + self.rng.below(8)) as f32 * 0.125;
            Write::SetTopicWeight { user, topic, weight }
        } else if roll < 9 {
            let from = self.rng.below(self.users as u64) as u32;
            let mut to = self.rng.below(self.users as u64 - 1) as u32;
            if to >= from {
                to += 1;
            }
            Write::IngestEdge { from, to }
        } else {
            self.users += 1;
            Write::IngestUser
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed() {
        let spec = Spec::by_name("hot-mix").unwrap();
        let a: Vec<Req> = {
            let mut s = QueryStream::new(&spec, 3);
            (0..50).map(|_| s.next_req()).collect()
        };
        let mut s = QueryStream::new(&spec, 3);
        let b: Vec<Req> = (0..50).map(|_| s.next_req()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cold_sets_never_repeat() {
        let spec = Spec::by_name("cold-wide").unwrap();
        let mut s = QueryStream::new(&spec, 1);
        let n = s.cold_left();
        assert_eq!(n, 560 + 1820 + 4368);
        let mut seen = HashSet::new();
        for _ in 0..n {
            assert!(seen.insert(s.next_req().topics));
        }
    }

    #[test]
    fn writes_stay_in_range() {
        let spec = Spec::by_name("ingest-mix").unwrap();
        let mut w = WriteStream::new(&spec, 9);
        let mut users = spec.users;
        let mut flushes = 0;
        for _ in 0..500 {
            match w.next_write() {
                Write::IngestUser => users += 1,
                Write::IngestEdge { from, to } => assert!(from < users && to < users && from != to),
                Write::SetTopicWeight { user, topic, .. } => {
                    assert!(user < users && topic < spec.topics)
                }
                Write::Flush => flushes += 1,
            }
        }
        assert_eq!(flushes, 500 / (spec.flush_every as usize + 1));
    }
}
