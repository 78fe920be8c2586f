//! Set-up: generate a corpus, build the database the shipped way, and
//! compute the answers every read is checked against.

use std::fs;
use std::path::Path;
use std::time::Instant;

use nok_baselines::di::DiEngine;
use nok_baselines::Engine;
use nok_core::XmlDb;

use crate::ops::Corpus;
use crate::util::{fnv1a, FNV_OFFSET};

/// Seconds spent in each part of one set-up round.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupRound {
    pub generate_s: f64,
    pub create_s: f64,
    pub flush_s: f64,
    pub first_open_s: f64,
}

impl SetupRound {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.create_s + self.flush_s + self.first_open_s
    }
}

/// One set-up round: generate the document, `create_on_disk`, `flush`, and
/// open the directory once, all with the shipped defaults. Returns the XML
/// so the oracle can be built from the very same text.
pub fn setup_round(corpus: Corpus, dir: &Path) -> Result<(String, SetupRound), String> {
    let _ = fs::remove_dir_all(dir);
    let mut round = SetupRound::default();
    let t = Instant::now();
    let xml = nok_datagen::generate(corpus.kind(), corpus.scale()).xml;
    round.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let db = XmlDb::create_on_disk(dir, &xml).map_err(|e| format!("create_on_disk: {e}"))?;
    round.create_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    db.flush().map_err(|e| format!("flush: {e}"))?;
    drop(db);
    round.flush_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let db = XmlDb::open_dir(dir).map_err(|e| format!("open_dir: {e}"))?;
    round.first_open_s = t.elapsed().as_secs_f64();
    drop(db);
    Ok((xml, round))
}

/// Order-sensitive hash of an answer: every Dewey id in the order returned.
pub fn answer_hash<'a>(deweys: impl Iterator<Item = &'a str>) -> u64 {
    deweys.fold(FNV_OFFSET, |h, d| fnv1a(fnv1a(h, d.as_bytes()), b";"))
}

/// What the child process checks answers against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    /// The oracle-checked queries of the workload, with the match count and
    /// ordered Dewey hash of each.
    pub fixed: Vec<String>,
    pub answers: Vec<(u32, u64)>,
    /// `articles[i]`: record `i` of dblp is an `<article>`.
    pub articles: Vec<bool>,
}

impl Expected {
    /// Evaluate `queries` with the DI baseline over the same XML.
    pub fn from_oracle(xml: &str, queries: &[String], corpus: Corpus) -> Result<Expected, String> {
        let di = DiEngine::new(xml).map_err(|e| format!("oracle load: {e}"))?;
        let mut answers = Vec::with_capacity(queries.len());
        for q in queries {
            let hits = di.eval(q).map_err(|e| format!("oracle {q}: {e}"))?;
            let rendered: Vec<String> = hits.iter().map(|d| d.to_string()).collect();
            let hash = answer_hash(rendered.iter().map(String::as_str));
            answers.push((rendered.len() as u32, hash));
        }
        Ok(Expected {
            fixed: queries.to_vec(),
            answers,
            articles: match corpus {
                Corpus::Dblp => article_records(xml),
                Corpus::Treebank => Vec::new(),
            },
        })
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        let bits: String = self
            .articles
            .iter()
            .map(|a| if *a { '1' } else { '0' })
            .collect();
        out.push_str(&format!("articles\t{bits}\n"));
        for (q, (count, hash)) in self.fixed.iter().zip(&self.answers) {
            out.push_str(&format!("q\t{count}\t{hash}\t{q}\n"));
        }
        fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }

    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut ex = Expected::default();
        for line in text.lines() {
            let mut f = line.splitn(4, '\t');
            match f.next() {
                Some("articles") => {
                    ex.articles = f.next().unwrap_or("").bytes().map(|b| b == b'1').collect();
                }
                Some("q") => {
                    let count = f.next().and_then(|s| s.parse().ok());
                    let hash = f.next().and_then(|s| s.parse().ok());
                    let (Some(count), Some(hash), Some(q)) = (count, hash, f.next()) else {
                        return Err(format!("bad line in {}: {line}", path.display()));
                    };
                    ex.fixed.push(q.to_string());
                    ex.answers.push((count, hash));
                }
                _ => return Err(format!("bad line in {}: {line}", path.display())),
            }
        }
        Ok(ex)
    }
}

/// Which dblp records are articles, read off the generator's
/// `key="<tag>/k<i>"` attribute: record `i` is one iff `<tag>` is `article`.
fn article_records(xml: &str) -> Vec<bool> {
    let mut out = Vec::new();
    for part in xml.split(" key=\"").skip(1) {
        let Some((tag, rest)) = part.split_once("/k") else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let Ok(i) = digits.parse::<usize>() else {
            continue;
        };
        if out.len() <= i {
            out.resize(i + 1, false);
        }
        out[i] = tag == "article";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn article_records_reads_the_key_attribute() {
        let xml = "<dblp><article mdate=\"x\" key=\"article/k0\"></article>\
                   <book mdate=\"x\" key=\"book/k1\"></book>\
                   <article mdate=\"x\" key=\"article/k2\"></article></dblp>";
        assert_eq!(article_records(xml), [true, false, true]);
    }

    #[test]
    fn answer_hash_depends_on_order() {
        let a = answer_hash(["0.1", "0.2"].into_iter());
        let b = answer_hash(["0.2", "0.1"].into_iter());
        assert_ne!(a, b);
        assert_ne!(a, answer_hash(["0.1"].into_iter()));
    }

    #[test]
    fn expected_survives_a_save_and_load() {
        let ex = Expected {
            fixed: vec!["//a[b=\"x y\"]/c".into(), "/d".into()],
            answers: vec![(3, 99), (0, FNV_OFFSET)],
            articles: vec![true, false, true],
        };
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        fs::create_dir_all(&out).unwrap();
        let path = out.join(format!("expect-test-{}.tsv", std::process::id()));
        ex.save(&path).unwrap();
        assert_eq!(Expected::load(&path).unwrap(), ex);
        let _ = fs::remove_file(&path);
    }
}
