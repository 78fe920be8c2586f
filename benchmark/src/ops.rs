//! What the benchmark asks of the program: the two corpora, the fixed query
//! sets, the seeded read sequences and the scripted update storm. Everything
//! here is a pure function of `--seed`, so one seed fixes every request.

use nok_datagen::DatasetKind;

use crate::util::{fnv1a, Rng, FNV_OFFSET};

/// The two documents. Sizes are fixed: a later PR may change how they are
/// stored, never what they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// `dblp` at scale 0.1: flat and wide, 26,000 records.
    Dblp,
    /// `treebank` at scale 0.4: deep and recursive, 18,000 records.
    Treebank,
}

impl Corpus {
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Dblp => "dblp-0.1",
            Corpus::Treebank => "treebank-0.4",
        }
    }

    pub fn kind(self) -> DatasetKind {
        match self {
            Corpus::Dblp => DatasetKind::Dblp,
            Corpus::Treebank => DatasetKind::Treebank,
        }
    }

    pub fn scale(self) -> f64 {
        match self {
            Corpus::Dblp => 0.1,
            Corpus::Treebank => 0.4,
        }
    }

    /// The record an update inserts under the root: six nodes, no needle
    /// value and no rare tag, so no fixed query changes its answer, and one
    /// unique key a later lookup finds it by.
    pub fn record(self, key: &str) -> String {
        match self {
            Corpus::Dblp => format!(
                "<article><author>Bench Writer</author><title>storm record {key}</title>\
                 <year>2004</year><pages>1-2</pages><ee>{}</ee></article>",
                ee_value(key)
            ),
            Corpus::Treebank => format!(
                "<bench><a>storm</a><b>record</b><c>six</c><d>nodes</d><ee>{}</ee></bench>",
                ee_value(key)
            ),
        }
    }

    /// The lookup that finds the record inserted with `key` (exactly one
    /// match while it exists, none after its delete).
    pub fn record_lookup(self, key: &str) -> String {
        match self {
            Corpus::Dblp => key_lookup(key),
            Corpus::Treebank => format!("//bench[ee=\"{}\"]/a", ee_value(key)),
        }
    }
}

fn ee_value(key: &str) -> String {
    format!("db/j/{key}.html")
}

/// `//article[ee="db/j/<key>.html"]/title`: the literal differs per key, so
/// the plan cache misses and the query is parsed and planned every time.
pub fn key_lookup(key: &str) -> String {
    format!("//article[ee=\"{}\"]/title", ee_value(key))
}

/// The dblp workload queries split by result size: `selective` are Q1–Q8 in
/// `/` and `//` form (at most 100 matches), `heavy` are Q9–Q12 in both forms
/// (thousands of matches).
pub struct DblpQueries {
    pub selective: Vec<String>,
    pub heavy: Vec<String>,
}

pub fn dblp_queries() -> DblpQueries {
    let mut q = DblpQueries {
        selective: Vec::new(),
        heavy: Vec::new(),
    };
    for (n, spec) in nok_datagen::workload(DatasetKind::Dblp) {
        let Some(spec) = spec else { continue };
        let bucket = if n <= 8 {
            &mut q.selective
        } else {
            &mut q.heavy
        };
        bucket.push(spec.path);
        bucket.push(spec.descendant_variant);
    }
    q
}

/// The four first-touch queries of `cold_deep`, one per restart cycle.
pub const COLD_QUERIES: [&str; 4] = [
    "/treebank/s/np",
    "//s/np",
    "/treebank/s[np][vp]",
    "//s[np][vp]",
];

/// What a correct answer to a read looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Index into the oracle's table: count and ordered Dewey hash.
    Oracle(usize),
    /// Exactly this many matches (key lookups, known by construction).
    Count(u32),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOp {
    pub path: String,
    pub expect: Expect,
}

/// Which read sequence a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// Alternating selective fixed queries and unique-literal key lookups.
    Point,
    /// The result-heavy fixed queries, reshuffled every round.
    Scan,
    /// The four cold queries in rotation.
    Cold,
    /// Key lookups only (after the storm there is nothing else to read).
    Keys,
}

/// An endless seeded stream of reads. `fixed` is the oracle-checked query
/// list of the mix and `articles[i]` says whether record `i` is an article
/// (a key lookup for it has one match, otherwise none).
pub struct ReadStream<'a> {
    mix: ReadMix,
    fixed: &'a [String],
    articles: &'a [bool],
    rng: Rng,
    n: usize,
    /// Where in `fixed` the point and cold rotations begin.
    offset: usize,
    order: Vec<usize>,
    keys: Vec<u32>,
    next_key: usize,
}

impl<'a> ReadStream<'a> {
    pub fn new(mix: ReadMix, fixed: &'a [String], articles: &'a [bool], seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // A seeded permutation of the record numbers, cycled: a literal
        // returns only after every other one, long after the 256-entry plan
        // cache has dropped it.
        let mut keys: Vec<u32> = (0..articles.len() as u32).collect();
        rng.shuffle(&mut keys);
        let offset = if fixed.is_empty() {
            0
        } else {
            rng.below(fixed.len())
        };
        ReadStream {
            mix,
            fixed,
            articles,
            rng,
            n: 0,
            offset,
            order: (0..fixed.len()).collect(),
            keys,
            next_key: 0,
        }
    }

    fn fixed_op(&self, i: usize) -> ReadOp {
        ReadOp {
            path: self.fixed[i].clone(),
            expect: Expect::Oracle(i),
        }
    }

    fn key_op(&mut self) -> ReadOp {
        let i = self.keys[self.next_key % self.keys.len()];
        self.next_key += 1;
        ReadOp {
            path: key_lookup(&i.to_string()),
            expect: Expect::Count(u32::from(self.articles[i as usize])),
        }
    }
}

impl Iterator for ReadStream<'_> {
    type Item = ReadOp;

    fn next(&mut self) -> Option<ReadOp> {
        let n = self.n;
        self.n += 1;
        Some(match self.mix {
            ReadMix::Point if n % 2 == 1 => self.key_op(),
            ReadMix::Point => self.fixed_op((self.offset + n / 2) % self.fixed.len()),
            ReadMix::Scan => {
                let at = n % self.fixed.len();
                if at == 0 {
                    self.rng.shuffle(&mut self.order);
                }
                self.fixed_op(self.order[at])
            }
            ReadMix::Cold => self.fixed_op((self.offset + n) % self.fixed.len()),
            ReadMix::Keys => self.key_op(),
        })
    }
}

/// FNV-1a over the first `n` paths of a stream: two runs with one seed must
/// print the same value.
pub fn sequence_hash(stream: impl Iterator<Item = ReadOp>, n: usize) -> u64 {
    stream.take(n).fold(FNV_OFFSET, |h, op| {
        fnv1a(fnv1a(h, op.path.as_bytes()), b"\n")
    })
}

/// One step of the update storm. Commit `k` (0-based) of the script is
/// *insert A(k/3)*, *insert B(k/3)*, *delete B(k/3)* in turn, so after any
/// number of acknowledged commits the surviving keys are known exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StormStep {
    Insert { key: String },
    DeleteLast,
}

pub fn storm_step(k: u64) -> StormStep {
    match k % 3 {
        0 => StormStep::Insert {
            key: storm_key('a', k / 3),
        },
        1 => StormStep::Insert {
            key: storm_key('b', k / 3),
        },
        _ => StormStep::DeleteLast,
    }
}

pub fn storm_key(kind: char, round: u64) -> String {
    format!("bench-{kind}{round}")
}

/// Keys that must be found, and keys that must be absent, after `acked`
/// commits of the script.
pub fn storm_outcome(acked: u64) -> (Vec<String>, Vec<String>) {
    let mut present = Vec::new();
    let mut absent = Vec::new();
    for k in 0..acked {
        match k % 3 {
            0 => present.push(storm_key('a', k / 3)),
            1 if k + 1 < acked => absent.push(storm_key('b', k / 3)),
            1 => present.push(storm_key('b', k / 3)),
            _ => {}
        }
    }
    (present, absent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Vec<String> {
        (0..16).map(|i| format!("/q{i}")).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let fixed = fixed();
        let articles = vec![true; 1000];
        for mix in [ReadMix::Point, ReadMix::Scan, ReadMix::Cold, ReadMix::Keys] {
            let h = |seed| sequence_hash(ReadStream::new(mix, &fixed, &articles, seed), 500);
            assert_eq!(h(7), h(7), "{mix:?}");
            assert_ne!(h(7), h(8), "{mix:?}");
        }
    }

    #[test]
    fn point_mix_alternates_and_never_repeats_a_literal_early() {
        let fixed = fixed();
        let articles: Vec<bool> = (0..1000).map(|i| i % 3 != 0).collect();
        let ops: Vec<ReadOp> = ReadStream::new(ReadMix::Point, &fixed, &articles, 1)
            .take(2000)
            .collect();
        let lookups: Vec<&ReadOp> = ops
            .iter()
            .filter(|o| matches!(o.expect, Expect::Count(_)))
            .collect();
        assert_eq!(lookups.len(), 1000);
        let distinct: std::collections::BTreeSet<&str> =
            lookups.iter().map(|o| o.path.as_str()).collect();
        assert_eq!(distinct.len(), 1000, "a permutation: no literal twice");
        let singles = lookups
            .iter()
            .filter(|o| o.expect == Expect::Count(1))
            .count();
        assert_eq!(singles, articles.iter().filter(|a| **a).count());
    }

    #[test]
    fn scan_mix_covers_every_query_each_round() {
        let fixed: Vec<String> = (0..8).map(|i| format!("/h{i}")).collect();
        let ops: Vec<ReadOp> = ReadStream::new(ReadMix::Scan, &fixed, &[], 3)
            .take(16)
            .collect();
        for round in ops.chunks(8) {
            let mut seen: Vec<&str> = round.iter().map(|o| o.path.as_str()).collect();
            seen.sort_unstable();
            let mut want: Vec<&str> = fixed.iter().map(String::as_str).collect();
            want.sort_unstable();
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn storm_outcome_follows_the_script() {
        assert_eq!(
            storm_step(0),
            StormStep::Insert {
                key: "bench-a0".into()
            }
        );
        assert_eq!(
            storm_step(1),
            StormStep::Insert {
                key: "bench-b0".into()
            }
        );
        assert_eq!(storm_step(2), StormStep::DeleteLast);
        // Stopped between insert B1 and its delete: B1 survives.
        let (present, absent) = storm_outcome(5);
        assert_eq!(present, ["bench-a0", "bench-a1", "bench-b1"]);
        assert_eq!(absent, ["bench-b0"]);
        let (present, absent) = storm_outcome(6);
        assert_eq!(present, ["bench-a0", "bench-a1"]);
        assert_eq!(absent, ["bench-b0", "bench-b1"]);
    }
}
