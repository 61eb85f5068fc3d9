//! What one run (one child process) hands back to the driver.

use crate::jsonio::{field, num, obj, text};
use frugal_telemetry::json::Json;
use std::collections::BTreeMap;

/// The result of one run: the numbers it measured, the values that must
/// repeat exactly from run to run, and the checks it failed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RepOutput {
    /// Measured numbers by metric name.
    pub values: BTreeMap<String, f64>,
    /// Values a pure speed-up cannot change (counts, loss bits), as text so
    /// 64-bit patterns survive JSON's doubles.
    pub exact: BTreeMap<String, String>,
    /// Failed checks, in words. Empty = the run is correct.
    pub failures: Vec<String>,
}

impl RepOutput {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    pub fn set_exact(&mut self, name: &str, value: impl ToString) {
        self.exact.insert(name.to_owned(), value.to_string());
    }

    /// The value of `name`; 0 when the run did not measure it (a layer
    /// that is not live on the workload).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
            (
                "exact",
                Json::Obj(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.clone(), text(v)))
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| text(f)).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let fields = |key: &str| {
            field(doc, key)?
                .as_object()
                .ok_or_else(|| format!("field {key:?} is not an object"))
        };
        let mut out = RepOutput::default();
        for (k, v) in fields("values")? {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("value {k:?} is not a number"))?;
            out.values.insert(k.clone(), v);
        }
        for (k, v) in fields("exact")? {
            let v = v
                .as_str()
                .ok_or_else(|| format!("exact {k:?} is not a string"))?;
            out.exact.insert(k.clone(), v.to_owned());
        }
        let failures = field(doc, "failures")?
            .as_array()
            .ok_or("field \"failures\" is not an array")?;
        for f in failures {
            out.failures
                .push(f.as_str().ok_or("a failure is not a string")?.to_owned());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::to_line;
    use frugal_telemetry::json::parse;

    #[test]
    fn survives_the_pipe_between_child_and_driver() {
        let mut rep = RepOutput::default();
        rep.set("keys_per_s", 1_234_567.891);
        rep.set("setup_s", 0.312_456_789);
        rep.set_exact("final_loss_bits", format!("{:08x}", 0.25f32.to_bits()));
        rep.set_exact("flush_rows", u64::MAX);
        rep.check(true, || unreachable!());
        rep.check(false, || "store row 7 differs from the oracle".to_owned());
        let back = RepOutput::from_json(&parse(&to_line(&rep.to_json())).unwrap()).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.get("keys_per_s"), 1_234_567.891);
        assert_eq!(back.get("absent"), 0.0);
        assert_eq!(back.exact["flush_rows"], u64::MAX.to_string());
    }

    #[test]
    fn rejects_a_malformed_document() {
        assert!(RepOutput::from_json(&parse("{}").unwrap()).is_err());
        let bad = r#"{"values":{"a":"x"},"exact":{},"failures":[]}"#;
        assert!(RepOutput::from_json(&parse(bad).unwrap()).is_err());
    }
}
