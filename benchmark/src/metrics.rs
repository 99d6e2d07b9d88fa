//! Every metric the benchmark emits: its name, unit, direction, and which
//! list of `BENCHMARK.json` it belongs to. A value can only be reported
//! under a name registered here (`report::Report::put` looks the unit up),
//! and a unit test holds this table and `BENCHMARK.json` to each other.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which set a metric is measured in and how it is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `BENCHMARK.json` `end_to_end`: host time base, measured untraced,
    /// non-zero on every workload, gated by `bound` (share of the
    /// baseline's median it may worsen by) across runs of differing seeds.
    EndToEnd { bound: f64 },
    /// A simulated end-to-end outcome: exact for a `(workload, seed)`, but
    /// zero or undefined on some workload (no FCT on `udp-forward`, no
    /// failures where the drain suffices) and, over ~1000 heavy-tailed
    /// flows, 17-27 % apart between seeds — so the driver's never-zero
    /// rule and its cross-seed spread rule keep it out of `end_to_end`.
    /// Listed under `per_layer`, reported in both sets, and judged per seed
    /// by `flowbench compare` against `bound`.
    Outcome { bound: f64 },
    /// `BENCHMARK.json` `per_layer`: one layer's count, time, unit cost or
    /// estimated share. Never gated.
    Layer,
    /// Host health beside every repetition. Never gated.
    Host,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Simulated time base or an exact count: a pure function of
    /// `(config, seed)`, bit-identical between two runs of one commit and
    /// across any engine-only change.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
        exact: false,
    }
}

const fn outcome(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Outcome { bound },
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer,
        exact,
    }
}

/// A timed per-layer quantity (host time base).
const fn timed(name: &'static str, unit: &'static str) -> Def {
    layer(name, unit, Better::Lower, false)
}

/// An exact per-layer count or ratio of counts.
const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    layer(name, unit, better, true)
}

const fn host(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Host,
        exact: false,
    }
}

use Better::{Higher, Lower};

pub const DEFS: &[Def] = &[
    // ---- end to end (BENCHMARK.json end_to_end) ----
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_pkts_per_s", "pkt/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.15),
    // ---- simulated outcomes: exact per (workload, seed) ----
    outcome("fail_share", "ratio", Lower, 0.0),
    outcome("sim_fct_mean_us", "us", Lower, 0.05),
    outcome("sim_fct_p99_us", "us", Lower, 0.10),
    outcome("sim_goodput_gbps", "Gbit/s", Higher, 0.05),
    outcome("sim_reorder_share", "ratio", Lower, 0.05),
    outcome("sim_retx_share", "ratio", Lower, 0.05),
    // ---- spans around the harness's calls into each layer ----
    timed("workloads.generate_s", "s"),
    timed("workloads.stream.next_ns", "ns"),
    timed("topology.build_s", "s"),
    timed("transport.install_s", "s"),
    timed("netsim.run.busy_ns_per_event", "ns"),
    timed("netsim.run.tail_ns_per_event", "ns"),
    timed("netsim.collect_s", "s"),
    timed("stats.summarize_s", "s"),
    timed("stats.json_s", "s"),
    timed("trace.overhead_share", "ratio"),
    // ---- exact counts read from the finished run ----
    count("netsim.event.events", "count", Lower),
    count("netsim.event.events_per_pkt", "ratio", Lower),
    layer("netsim.event.events_per_s", "1/s", Higher, false),
    count("netsim.switch.pkt_hops", "count", Lower),
    count("netsim.queue.enqueued", "count", Lower),
    count("netsim.queue.drops", "count", Lower),
    count("netsim.queue.ecn_marks", "count", Lower),
    count("netsim.queue.max_bytes", "B", Lower),
    count("netsim.slab.peak_pkts", "count", Lower),
    count("netsim.record.flows", "count", Higher),
    count("transport.sender.acks", "count", Lower),
    count("transport.sender.dup_ack_share", "ratio", Lower),
    count("transport.sender.retransmits", "count", Lower),
    count("transport.sender.spurious_share", "ratio", Lower),
    count("transport.sender.timeouts", "count", Lower),
    count("transport.receiver.data_pkts", "count", Lower),
    count("transport.receiver.ooo_share", "ratio", Lower),
    count("transport.receiver.dup_bytes", "B", Lower),
    count("transport.receiver.ooo_bytes_max", "B", Lower),
    count("core.bender.reroutes", "count", Lower),
    count("core.bender.reroutes_per_flow", "ratio", Lower),
    // ---- unit costs from isolated calls into each layer ----
    timed("netsim.event.push_pop_ns_d1k", "ns"),
    timed("netsim.event.push_pop_ns_d64k", "ns"),
    timed("netsim.hashing.select_ns", "ns"),
    timed("netsim.queue.enq_deq_ns", "ns"),
    timed("netsim.slab.insert_remove_ns", "ns"),
    timed("netsim.switch.hop_ns", "ns"),
    timed("netsim.switch.hop_ns_flowcut", "ns"),
    timed("netsim.record.bump_ns", "ns"),
    timed("transport.sender.on_ack_ns", "ns"),
    timed("transport.sender.on_dupack_ns", "ns"),
    timed("transport.receiver.on_data_inorder_ns", "ns"),
    timed("transport.receiver.on_data_ooo_ns", "ns"),
    timed("transport.udp.tick_ns", "ns"),
    timed("core.bender.on_ack_ns", "ns"),
    timed("core.bender.on_rtt_end_ns", "ns"),
    timed("stats.sketch.add_ns", "ns"),
    // ---- estimated shares of wall_s: count x unit cost / wall_s ----
    timed("share.netsim.event", "ratio"),
    timed("share.netsim.switch", "ratio"),
    timed("share.netsim.queue", "ratio"),
    timed("share.transport.sender", "ratio"),
    timed("share.transport.receiver", "ratio"),
    timed("share.core.bender", "ratio"),
    timed("share.unattributed", "ratio"),
    // ---- sharded engine, probed on a reduced fabric1024 input ----
    count("experiments.shard.rounds", "count", Lower),
    count("experiments.shard.handoffs", "count", Lower),
    count("experiments.shard.events_per_round", "ratio", Higher),
    count("experiments.shard.event_inflation", "ratio", Lower),
    count("experiments.shard.matches_s1", "bool", Higher),
    timed("experiments.shard.wall_ratio_s2", "ratio"),
    layer("experiments.shard.idle_share", "ratio", Lower, false),
    // ---- host health ----
    host("host.calib_ns", "ns"),
    host("host.steal_share", "ratio"),
    host("cpu_s", "s"),
    host("host.nproc", "count"),
];

pub fn find(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

impl Def {
    /// Listed under `end_to_end` in `BENCHMARK.json`; the final line of an
    /// untraced run carries exactly these.
    pub fn is_end_to_end(&self) -> bool {
        matches!(self.kind, Kind::EndToEnd { .. })
    }

    /// Listed under `per_layer` in `BENCHMARK.json`; the final line of a
    /// traced run carries exactly these.
    pub fn is_per_layer(&self) -> bool {
        !self.is_end_to_end()
    }

    /// The regression bound `flowbench compare` applies, if any.
    pub fn bound(&self) -> Option<f64> {
        match self.kind {
            Kind::EndToEnd { bound } | Kind::Outcome { bound } => Some(bound),
            Kind::Layer | Kind::Host => None,
        }
    }
}

/// Names are made of `[A-Za-z0-9_.-]`, start with a letter or digit, and
/// are at most 64 characters (the `BENCHMARK.json` contract).
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Units are made of `[A-Za-z0-9_/%.-]` and are at most 16 characters.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::WORKLOADS;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for d in DEFS {
            assert!(valid_name(d.name), "metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "unit {:?} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} registered twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} clashes with a metric", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("µs"));
    }

    #[test]
    fn contract_limits_hold() {
        let e2e = DEFS.iter().filter(|d| d.is_end_to_end()).count();
        let per_layer = DEFS.iter().filter(|d| d.is_per_layer()).count();
        assert!((1..=16).contains(&e2e));
        assert!((1..=128).contains(&per_layer));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for d in DEFS {
            if let Some(b) = d.bound() {
                assert!((0.0..=0.25).contains(&b), "{} bound {b}", d.name);
            }
        }
        // setup_s is the noisiest (shortest) region: it gets the largest bound.
        let max = DEFS.iter().filter_map(Def::bound).fold(0.0, f64::max);
        assert_eq!(setup.bound(), Some(max));
    }

    /// `BENCHMARK.json` lists exactly the names (units, directions,
    /// bounds, workloads) this binary emits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = json::entries(&root)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let listed = |key: &str| -> Vec<Vec<(String, String)>> {
            json::items(json::get(&root, key).unwrap())
                .iter()
                .map(|m| {
                    json::entries(m)
                        .iter()
                        .map(|(k, v)| {
                            let v = json::text(v)
                                .map(str::to_string)
                                .or_else(|| json::num(v).map(|x| x.to_string()))
                                .unwrap();
                            (k.clone(), v)
                        })
                        .collect()
                })
                .collect()
        };
        let s = |k: &str, v: &str| (k.to_string(), v.to_string());

        let want_e2e: Vec<_> = DEFS
            .iter()
            .filter(|d| d.is_end_to_end())
            .map(|d| {
                vec![
                    s("name", d.name),
                    s("unit", d.unit),
                    s("better", d.better.as_str()),
                    s("bound", &d.bound().unwrap().to_string()),
                ]
            })
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);

        let want_layers: Vec<_> = DEFS
            .iter()
            .filter(|d| d.is_per_layer())
            .map(|d| {
                vec![
                    s("name", d.name),
                    s("unit", d.unit),
                    s("better", d.better.as_str()),
                ]
            })
            .collect();
        assert_eq!(listed("per_layer"), want_layers);

        let want_workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| vec![s("name", w.name), s("why", w.why)])
            .collect();
        assert_eq!(listed("workloads"), want_workloads);

        let paths: Vec<&str> = json::items(json::get(&root, "paths").unwrap())
            .iter()
            .filter_map(json::text)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let secs = json::num(json::get(&root, "run_seconds").unwrap()).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
