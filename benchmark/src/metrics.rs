//! The named numbers a run reports, and the check that they are exactly
//! the ones `BENCHMARK.json` promises.

use crate::json::Value;
use std::fmt::Write as _;

/// Metric rows in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on a name reported twice or a value that is not finite.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            self.rows.iter().all(|r| r.0 != name),
            "{name} reported twice"
        );
        self.rows.push((name.to_string(), unit, value));
    }

    /// Appends another collector's rows.
    pub fn extend(&mut self, other: Metrics) {
        for (name, unit, value) in other.rows {
            self.push(&name, unit, value);
        }
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.rows {
            writeln!(out, "  {name:<44} {value:>16.6} {unit}").expect("write to String");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// Compares the reported rows with the `section` (`end_to_end` or
    /// `per_layer`) of a parsed `BENCHMARK.json`: every named metric
    /// reported once with its unit, nothing reported that is not named.
    pub fn check_against(&self, spec: &Value, section: &str) -> Result<(), String> {
        let named: Vec<(&str, &str)> = spec
            .get(section)
            .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?
            .items()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .ok_or(format!("{section}: no {k}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect::<Result<_, String>>()?;
        for &(name, unit) in &named {
            match self.rows.iter().find(|r| r.0 == name) {
                None => return Err(format!("{name} is named in {section} but not reported")),
                Some(r) if r.1 != unit => {
                    return Err(format!("{name} reported in {}, named in {unit}", r.1))
                }
                Some(_) => {}
            }
        }
        match self.rows.iter().find(|r| named.iter().all(|n| n.0 != r.0)) {
            Some(r) => Err(format!("{} is reported but not named in {section}", r.0)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn check_catches_missing_extra_and_wrong_unit() {
        let spec = parse(
            r#"{"per_layer": [{"name": "a", "unit": "ms", "better": "lower"},
                              {"name": "b", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        let mut m = Metrics::default();
        m.push("a", "ms", 1.5);
        assert!(m
            .check_against(&spec, "per_layer")
            .unwrap_err()
            .contains("b is named"));
        m.push("b", "us", 2.0);
        assert!(m
            .check_against(&spec, "per_layer")
            .unwrap_err()
            .contains("named in count"));
        let mut m = Metrics::default();
        m.push("a", "ms", 1.5);
        m.push("b", "count", 2.0);
        assert_eq!(m.check_against(&spec, "per_layer"), Ok(()));
        m.push("c", "s", 3.0);
        assert!(m
            .check_against(&spec, "per_layer")
            .unwrap_err()
            .contains("c is reported"));
        assert!(m.check_against(&spec, "end_to_end").is_err());
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("job_ms", "ms", 123.456789012345);
        assert_eq!(
            m.to_json(),
            r#"{"job_ms": {"value": 123.456789012345, "unit": "ms"}}"#
        );
    }
}
