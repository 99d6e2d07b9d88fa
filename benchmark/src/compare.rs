//! `flowbench compare A.json B.json`: is B within the benchmark's bounds of
//! A, per (metric, workload)?
//!
//! * A bounded metric is **out of bound** when B's value is worse than
//!   A's by more than the bound (a share of A's value).
//! * It is **unresolved** when the quartile spread inside either run
//!   exceeds the bound: the measurement cannot tell.
//! * An exact metric (simulated time base, counts) that differs at all is
//!   flagged **changed** — fine for a change to the modelled behaviour,
//!   disqualifying for a change that claims to touch only the engine.
//! * **host drift** is flagged when `host.calib_ns` differs by more than
//!   5 % or either side saw more than 5 % steal.

use stats::Json;

use crate::json;
use crate::metrics::{self, Better};

const DRIFT: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    OutOfBound,
    Unresolved,
    Changed,
}

/// One metric of one side: its value and, for timed ones, its spread.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

fn side(metric: &Json) -> Option<Side> {
    let value = json::num(json::get(metric, "value")?)?;
    let q = |k| json::get(metric, k).and_then(json::num);
    // A timed metric's value is the median of its repetitions.
    let spread = match (q("q1"), q("q3")) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some(Side { value, spread })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        // From nothing to something: infinitely worse (or unchanged).
        let d = match better {
            Better::Lower => b - a,
            Better::Higher => a - b,
        };
        return if d > 0.0 { f64::INFINITY } else { 0.0 };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &metrics::Def, a: Side, b: Side) -> Verdict {
    match def.bound() {
        Some(bound) => {
            let w = worsening(def.better, a.value, b.value);
            if def.exact {
                // No run-to-run noise: any worsening beyond the bound counts.
                return if w > bound {
                    Verdict::OutOfBound
                } else if a.value.to_bits() != b.value.to_bits() {
                    Verdict::Changed
                } else {
                    Verdict::Ok
                };
            }
            if a.spread > bound || b.spread > bound {
                Verdict::Unresolved
            } else if w > bound {
                Verdict::OutOfBound
            } else if w < -bound {
                Verdict::Improved
            } else {
                Verdict::Ok
            }
        }
        None if def.exact && a.value.to_bits() != b.value.to_bits() => Verdict::Changed,
        None => Verdict::Ok,
    }
}

/// A result file is either one workload's report or `{"workloads": {..}}`.
fn workloads(root: &Json) -> Vec<(String, &Json)> {
    match json::get(root, "workloads") {
        Some(ws) => json::entries(ws)
            .iter()
            .map(|(k, v)| (k.clone(), v))
            .collect(),
        None => json::get(root, "workload")
            .and_then(json::text)
            .map(|name| vec![(name.to_string(), root)])
            .unwrap_or_default(),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files; prints a table and returns whether B is
/// within bounds of A (no metric out of bound, no workload incorrect).
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (ja, jb) = (load(path_a)?, load(path_b)?);
    let (wa, wb) = (workloads(&ja), workloads(&jb));
    if wa.is_empty() || wb.is_empty() {
        return Err("no workload results found in one of the files".into());
    }
    let mut within = true;
    let mut tally = [0usize; 5];
    println!(
        "{:<15} {:<38} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name}: missing from {path_b}");
            within = false;
            continue;
        };
        for (r, path) in [(ra, path_a), (rb, path_b)] {
            if json::get(r, "correct") != Some(&Json::Bool(true)) {
                println!("{name}: correctness checks failed in {path}");
                within = false;
            }
        }
        let (ma, mb) = (json::get(ra, "metrics"), json::get(rb, "metrics"));
        let (Some(ma), Some(mb)) = (ma, mb) else {
            return Err(format!("{name}: no metrics object"));
        };
        for (metric, va) in json::entries(ma) {
            let (Some(def), Some(vb)) = (metrics::find(metric), json::get(mb, metric)) else {
                continue;
            };
            let (Some(a), Some(b)) = (side(va), side(vb)) else {
                continue;
            };
            let verdict = judge(def, a, b);
            tally[verdict as usize] += 1;
            if verdict == Verdict::OutOfBound {
                within = false;
            }
            // Bounded metrics always print; the rest only when notable.
            if def.bound().is_some() || verdict != Verdict::Ok {
                let bound = def
                    .bound()
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
                println!(
                    "{:<15} {:<38} {:>14.6} {:>14.6} {:>8.2}% {:>7}  {}",
                    name,
                    metric,
                    a.value,
                    b.value,
                    worsening(def.better, a.value, b.value) * 100.0,
                    bound,
                    match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Improved => "improved",
                        Verdict::OutOfBound => "OUT OF BOUND",
                        Verdict::Unresolved => "unresolved (spread > bound)",
                        Verdict::Changed => "changed (exact metric differs)",
                    }
                );
            }
        }
        let get = |r: &Json, m: &str| {
            json::get(r, "metrics")
                .and_then(|ms| json::get(ms, m))
                .and_then(side)
                .map(|s| s.value)
        };
        if let (Some(ca), Some(cb)) = (get(ra, "host.calib_ns"), get(rb, "host.calib_ns")) {
            let steal = get(ra, "host.steal_share")
                .unwrap_or(0.0)
                .max(get(rb, "host.steal_share").unwrap_or(0.0));
            if (cb - ca).abs() / ca > DRIFT || steal > DRIFT {
                println!(
                    "{name}: HOST DRIFT — calib {ca:.1} vs {cb:.1} ns, steal up to {:.1}%; the host ran at different paces: calibrated seconds allow for most of that, unscaled times (cpu_s, per-layer) for none",
                    steal * 100.0
                );
            }
        }
    }
    println!(
        "ok {}  improved {}  out-of-bound {}  unresolved {}  changed {}",
        tally[0], tally[1], tally[2], tally[3], tally[4]
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1e-9), f64::INFINITY);
    }

    #[test]
    fn timed_metric_verdicts() {
        let wall = metrics::find("wall_s").unwrap(); // bound 25 %, lower
        assert_eq!(judge(wall, s(2.0, 0.01), s(2.4, 0.01)), Verdict::Ok);
        assert_eq!(judge(wall, s(2.0, 0.01), s(2.6, 0.01)), Verdict::OutOfBound);
        assert_eq!(judge(wall, s(2.0, 0.01), s(1.4, 0.01)), Verdict::Improved);
        assert_eq!(judge(wall, s(2.0, 0.3), s(2.6, 0.01)), Verdict::Unresolved);
    }

    #[test]
    fn exact_metric_verdicts() {
        let fail = metrics::find("fail_share").unwrap(); // any increase
        assert_eq!(judge(fail, s(0.0, 0.0), s(0.0, 0.0)), Verdict::Ok);
        assert_eq!(judge(fail, s(0.0, 0.0), s(0.001, 0.0)), Verdict::OutOfBound);
        let fct = metrics::find("sim_fct_mean_us").unwrap(); // 5 %
        assert_eq!(judge(fct, s(100.0, 0.0), s(101.0, 0.0)), Verdict::Changed);
        assert_eq!(
            judge(fct, s(100.0, 0.0), s(106.0, 0.0)),
            Verdict::OutOfBound
        );
        let events = metrics::find("netsim.event.events").unwrap(); // unbounded
        assert_eq!(judge(events, s(5.0, 0.0), s(6.0, 0.0)), Verdict::Changed);
        assert_eq!(judge(events, s(5.0, 0.0), s(5.0, 0.0)), Verdict::Ok);
        let probe = metrics::find("netsim.queue.enq_deq_ns").unwrap(); // timed, unbounded
        assert_eq!(judge(probe, s(5.0, 0.0), s(9.0, 0.0)), Verdict::Ok);
    }
}
