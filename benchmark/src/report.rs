//! One workload's result: named values with units, printed for people and
//! written as JSON for `flowbench compare` and the driver.

use stats::Json;

use crate::metrics::{self, Def};
use crate::statx::Summary;

/// One reported value. Timed quantities carry the spread over the run's
/// repetitions; exact ones are a single number.
#[derive(Debug, Clone)]
pub struct Value {
    pub def: &'static Def,
    pub value: f64,
    pub spread: Option<Summary>,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Timed repetitions behind every median.
    pub reps: usize,
    pub correct: bool,
    /// Offered flows, and those of them the run left unaccounted for
    /// (every one of them when a correctness check fails).
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for `correct == false`.
    pub violations: Vec<String>,
    pub values: Vec<Value>,
}

impl Report {
    fn def(name: &str) -> &'static Def {
        metrics::find(name).unwrap_or_else(|| panic!("metric {name:?} is not registered"))
    }

    /// Report an exact (or single-shot) value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push(Value {
            def: Self::def(name),
            value,
            spread: None,
        });
    }

    /// Report a timed quantity measured once per repetition: the median
    /// over the repetitions.
    pub fn put_timed(&mut self, name: &str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.values.push(Value {
            def: Self::def(name),
            value: s.median,
            spread: Some(s),
        });
    }

    /// The values the final line must carry for this set, in registry
    /// order; `Err` names what is missing (the registry and the emitting
    /// code disagree — a bug in the benchmark, not in the program).
    pub fn final_metrics(&self) -> Result<Vec<&Value>, String> {
        let want = |d: &Def| {
            if self.traced {
                d.is_per_layer()
            } else {
                d.is_end_to_end()
            }
        };
        metrics::DEFS
            .iter()
            .filter(|d| want(d))
            .map(|d| {
                self.values
                    .iter()
                    .find(|v| v.def.name == d.name)
                    .ok_or_else(|| format!("metric {} was not measured", d.name))
            })
            .collect()
    }

    /// One line per value: `name value unit [how many repetitions; spread]`.
    pub fn print(&self) {
        println!(
            "== {} seed={} set={} reps={}{}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.reps,
            if self.smoke { " (smoke)" } else { "" },
        );
        for v in &self.values {
            match &v.spread {
                Some(s) => println!(
                    "{:<40} {:>16.6} {:<7} median of {}: q1={:.6} q3={:.6} min={:.6}",
                    v.def.name, v.value, v.def.unit, s.n, s.q1, s.q3, s.min
                ),
                None => println!("{:<40} {:>16.6} {:<7}", v.def.name, v.value, v.def.unit),
            }
        }
        for why in &self.violations {
            println!("VIOLATION {}: {why}", self.workload);
        }
        println!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }

    fn value_json(v: &Value, full: bool) -> Json {
        let mut o = Json::obj();
        o.set("value", Json::Num(v.value));
        o.set("unit", Json::str(v.def.unit));
        if let (true, Some(s)) = (full, &v.spread) {
            o.set("q1", Json::Num(s.q1));
            o.set("q3", Json::Num(s.q3));
            o.set("min", Json::Num(s.min));
            o.set("n", Json::U64(s.n as u64));
        }
        o
    }

    /// The full result: every value with its quartiles.
    pub fn to_json(&self) -> Json {
        let mut m = Json::obj();
        for v in &self.values {
            m.set(v.def.name, Self::value_json(v, true));
        }
        let mut o = Json::obj();
        o.set("workload", Json::str(self.workload));
        o.set("seed", Json::U64(self.seed));
        o.set("traced", Json::Bool(self.traced));
        o.set("smoke", Json::Bool(self.smoke));
        o.set("reps", Json::U64(self.reps as u64));
        o.set("correct", Json::Bool(self.correct));
        o.set("attempted", Json::U64(self.attempted));
        o.set("failed", Json::U64(self.failed));
        let mut why = Json::arr();
        for v in &self.violations {
            why.push(Json::str(v));
        }
        o.set("violations", why);
        o.set("metrics", m);
        o
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, the latter holding exactly this set's listed metrics.
    pub fn final_line(&self) -> Result<String, String> {
        let mut m = Json::obj();
        for v in self.final_metrics()? {
            m.set(v.def.name, Self::value_json(v, false));
        }
        let mut o = Json::obj();
        o.set("correct", Json::Bool(self.correct));
        o.set("attempted", Json::U64(self.attempted));
        o.set("failed", Json::U64(self.failed));
        o.set("metrics", m);
        Ok(o.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(traced: bool) -> Report {
        Report {
            workload: "fig3-alltoall",
            seed: 1,
            traced,
            smoke: true,
            reps: 1,
            correct: true,
            attempted: 1,
            failed: 0,
            violations: Vec::new(),
            values: Vec::new(),
        }
    }

    #[test]
    fn final_line_carries_exactly_the_listed_set() {
        for traced in [false, true] {
            let mut r = empty(traced);
            assert!(r.final_line().is_err(), "nothing measured yet");
            for d in metrics::DEFS {
                r.put_timed(d.name, &[1.0, 2.0, 4.0]);
            }
            let line = r.final_line().unwrap();
            let v = crate::json::parse(&line).unwrap();
            let keys: Vec<&str> = crate::json::entries(&v)
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> = crate::json::entries(crate::json::get(&v, "metrics").unwrap())
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = metrics::DEFS
                .iter()
                .filter(|d| d.is_end_to_end() != traced)
                .map(|d| d.name)
                .collect();
            assert_eq!(names, want);
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_names_cannot_be_reported() {
        empty(false).put("made.up", 1.0);
    }
}
