//! What one run measured: named values with units, the operations it
//! attempted and failed, and free-form notes. The child process writes one
//! to a file; the parent reads it back, adds its own, and prints.

use std::fs;
use std::path::Path;

use crate::json::Json;

#[derive(Debug, Clone, Default)]
pub struct Report {
    /// In the order measured. A metric that does not apply is absent.
    pub metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Context a reader needs (sample counts, sequence hashes, …).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name.to_string(), value, unit.to_string()),
            None => self
                .metrics
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn note_of(&self, key: &str) -> Option<&str> {
        self.notes.iter().find(|n| n.0 == key).map(|n| n.1.as_str())
    }

    /// Note the seconds since `since` under `name` and restart the clock:
    /// where a run's own time goes, phase by phase.
    pub fn lap(&mut self, since: &mut std::time::Instant, name: &str) {
        self.note(name, since.elapsed().as_secs_f64());
        *since = std::time::Instant::now();
    }

    /// Count `failed` of `attempted` checked operations.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn absorb(&mut self, other: Report) {
        for (name, value, unit) in other.metrics {
            self.put(&name, value, &unit);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| (name.clone(), metric_json(*value, unit)))
                .collect(),
        )
    }

    pub fn notes_json(&self) -> Json {
        Json::Obj(
            self.notes
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            ("notes", self.notes_json()),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        let mut r = Report {
            attempted: v
                .get("attempted")
                .and_then(Json::as_f64)
                .ok_or("no attempted")? as u64,
            failed: v.get("failed").and_then(Json::as_f64).ok_or("no failed")? as u64,
            ..Report::default()
        };
        for (name, m) in v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no metrics")?
        {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric {name} lacks a value or a unit"));
            };
            r.metrics.push((name.clone(), value, unit.to_string()));
        }
        for (k, n) in v.get("notes").and_then(Json::as_obj).unwrap_or(&[]) {
            r.notes
                .push((k.clone(), n.as_str().unwrap_or("").to_string()));
        }
        Ok(r)
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        fs::write(path, self.to_json().render())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    pub fn load(path: &Path) -> Result<Report, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Report::from_json(&Json::parse(&text)?)
    }
}

pub fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_json() {
        let mut r = Report::default();
        r.put("read_qps", 1234.5678, "1/s");
        r.put("read_p50_us", 217.25, "us");
        r.put("read_qps", 99.5, "1/s");
        r.count(100, 2);
        r.note("sequence_hash", 42u64);
        let back = Report::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(
            back.metrics.len(),
            2,
            "put replaces a metric of the same name"
        );
        assert_eq!((back.attempted, back.failed), (100, 2));
        assert_eq!(back.note_of("sequence_hash"), Some("42"));
    }
}
