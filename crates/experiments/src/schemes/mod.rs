//! The scheme registry: every evaluated load-balancing design as one
//! [`SchemeSpec`] — fabric side ([`netsim::SwitchConfig`]) and host side
//! ([`transport::TcpConfig`], whose [`transport::PathSpec`] names the
//! per-flow [`transport::PathControl`] and its parameters) bundled
//! under a display name. Both halves are plain `Copy` data.
//!
//! One file per scheme. Adding a scheme is: write one new `spec()` file
//! next to the existing ones, add one line to [`registry`] — nothing
//! else. The RepFlow scheme ([`repflow`]) landed exactly that way.
//!
//! | scheme | fabric | host |
//! |--------|--------|------|
//! | ECMP | 5-tuple(+V) hash | DCTCP |
//! | FlowBender | 5-tuple+V hash | DCTCP + FlowBender |
//! | RPS | per-packet random spray | DCTCP |
//! | DeTail | per-packet adaptive + PFC | DCTCP, no fast retransmit |
//! | Flowlet(gap) | switch flowlet tables | DCTCP |
//! | Flowcut(gap) | 5-tuple+V hash | DCTCP + host-side gap switching |
//! | Flowcut-SW(gap) | switch flowcut tables, boundary-only re-route | DCTCP |
//! | RepFlow | 5-tuple+V hash | DCTCP; short flows sent twice |
//! | Bender-INT | 5-tuple+V hash + INT stamping | DCTCP + bend away from blamed hop |
//! | FastCC | 5-tuple+V hash + early CN | DCTCP (cuts cwnd on CN arrival) |

mod bender;
mod bender_int;
mod detail;
mod ecmp;
mod fastcc;
mod flowcut;
mod flowcut_sw;
mod flowlet;
mod repflow;
mod rps;

pub use bender::flowbender;
pub use bender_int::bender_int;
pub use detail::detail;
pub use ecmp::ecmp;
pub use fastcc::fastcc;
pub use flowcut::flowcut;
pub use flowcut_sw::flowcut_sw;
pub use flowlet::flowlet;
pub use repflow::repflow;
pub use rps::rps;

use netsim::SwitchConfig;
use transport::TcpConfig;

/// Replication policy of a scheme (RepFlow-style): TCP flows strictly
/// smaller than `max_bytes` are sent twice, the duplicate pinned to
/// V-field `replica_v`, and the first finisher wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replication {
    /// Flows strictly smaller than this many bytes are replicated.
    pub max_bytes: u64,
    /// The V-field the duplicate is pinned to (primaries keep V = 0), so
    /// the two copies hash onto independent paths.
    pub replica_v: u8,
}

/// One evaluated load-balancing design: everything the runners need to
/// set up the fabric and the hosts, plus how to present it.
#[derive(Debug, Clone)]
pub struct SchemeSpec {
    name: String,
    switch: SwitchConfig,
    tcp: TcpConfig,
    fabric: String,
    host: String,
    brief: String,
    replicate: Option<Replication>,
}

impl SchemeSpec {
    /// A spec with empty descriptions (fill them with the builder
    /// methods).
    pub fn new(name: impl Into<String>, switch: SwitchConfig, tcp: TcpConfig) -> Self {
        tcp.validate();
        SchemeSpec {
            name: name.into(),
            switch,
            tcp,
            fabric: String::new(),
            host: String::new(),
            brief: String::new(),
            replicate: None,
        }
    }

    /// Builder: the one-line fabric-side description.
    pub fn fabric(mut self, s: impl Into<String>) -> Self {
        self.fabric = s.into();
        self
    }

    /// Builder: the one-line host-side description.
    pub fn host(mut self, s: impl Into<String>) -> Self {
        self.host = s.into();
        self
    }

    /// Builder: the one-line scheme description.
    pub fn brief(mut self, s: impl Into<String>) -> Self {
        self.brief = s.into();
        self
    }

    /// Builder: enable RepFlow-style replication of short flows.
    pub fn replicating(mut self, r: Replication) -> Self {
        self.replicate = Some(r);
        self
    }

    /// Display name, parameters included (e.g. `Flowlet(100us)`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The [`workloads::slug`] of the name (`FlowBender` → `flowbender`,
    /// `Flowlet(100us)` → `flowlet_100us`).
    pub fn slug(&self) -> String {
        workloads::slug(&self.name)
    }

    /// The switch configuration this scheme needs.
    pub fn switch_config(&self) -> SwitchConfig {
        self.switch
    }

    /// The host TCP configuration this scheme needs.
    pub fn tcp_config(&self) -> TcpConfig {
        self.tcp
    }

    /// The fabric-side one-line description.
    pub fn fabric_desc(&self) -> &str {
        &self.fabric
    }

    /// The host-side one-line description.
    pub fn host_desc(&self) -> &str {
        &self.host
    }

    /// The one-line scheme description.
    pub fn brief_desc(&self) -> &str {
        &self.brief
    }

    /// The replication policy, if this scheme duplicates short flows.
    pub fn replication(&self) -> Option<Replication> {
        self.replicate
    }
}

/// Render a flowlet/flowcut gap compactly for a scheme name: whole
/// microseconds as `100us`, anything finer in ns.
pub(crate) fn fmt_gap(gap: netsim::SimTime) -> String {
    let ps = gap.as_ps();
    if ps.is_multiple_of(1_000_000) {
        format!("{}us", ps / 1_000_000)
    } else {
        format!("{}ns", ps as f64 / 1_000.0)
    }
}

/// Every registered scheme, in deterministic presentation order: the
/// paper's four first, then the extensions.
pub fn registry() -> Vec<SchemeSpec> {
    vec![
        ecmp(),
        flowbender(::flowbender::Config::default()),
        rps(),
        detail(),
        flowlet(netsim::SimTime::from_us(100)),
        flowcut(netsim::SimTime::from_us(100)),
        flowcut_sw(netsim::SimTime::from_us(100)),
        repflow(),
        bender_int(),
        fastcc(),
    ]
}

/// The paper's four evaluated schemes, in its presentation order.
pub fn paper_set() -> Vec<SchemeSpec> {
    registry().into_iter().take(4).collect()
}

/// Look a scheme up by name, case-insensitively. Matches the full
/// display name (`Flowlet(100us)`), the base name before any parameter
/// list (`flowlet`), or the slug (`flowlet_100us`).
pub fn find(name: &str) -> Option<SchemeSpec> {
    let want = name.to_ascii_lowercase();
    registry().into_iter().find(|s| {
        let full = s.name().to_ascii_lowercase();
        let base = full.split('(').next().unwrap_or(&full).to_string();
        want == full || want == base || want == s.slug()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_deterministic_and_named_uniquely() {
        let a = registry();
        let b = registry();
        let names: Vec<_> = a.iter().map(|s| s.name().to_string()).collect();
        assert_eq!(
            names,
            b.iter().map(|s| s.name().to_string()).collect::<Vec<_>>()
        );
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names must be unique: {names:?}");
        for s in &a {
            assert!(!s.fabric_desc().is_empty(), "{}: fabric desc", s.name());
            assert!(!s.host_desc().is_empty(), "{}: host desc", s.name());
            assert!(!s.brief_desc().is_empty(), "{}: brief", s.name());
        }
    }

    #[test]
    fn paper_set_matches_the_paper_order() {
        let names: Vec<String> = paper_set().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["ECMP", "FlowBender", "RPS", "DeTail"]);
    }

    #[test]
    fn find_matches_full_base_and_slug_case_insensitively() {
        assert_eq!(find("flowbender").unwrap().name(), "FlowBender");
        assert_eq!(find("ECMP").unwrap().name(), "ECMP");
        assert_eq!(find("Flowlet(100us)").unwrap().name(), "Flowlet(100us)");
        assert_eq!(find("flowlet").unwrap().name(), "Flowlet(100us)");
        assert_eq!(find("flowlet_100us").unwrap().name(), "Flowlet(100us)");
        assert_eq!(find("flowcut-sw").unwrap().name(), "Flowcut-SW(100us)");
        assert_eq!(
            find("flowcut_sw_100us").unwrap().name(),
            "Flowcut-SW(100us)"
        );
        assert_eq!(find("flowcut").unwrap().name(), "Flowcut(100us)");
        assert_eq!(find("repflow").unwrap().name(), "RepFlow");
        assert_eq!(find("bender-int").unwrap().name(), "Bender-INT");
        assert_eq!(find("bender_int").unwrap().name(), "Bender-INT");
        assert_eq!(find("fastcc").unwrap().name(), "FastCC");
        assert!(find("vlb").is_none());
    }

    #[test]
    fn slugs_are_label_safe() {
        assert_eq!(
            flowbender(::flowbender::Config::default()).slug(),
            "flowbender"
        );
        assert_eq!(
            flowlet(netsim::SimTime::from_us(100)).slug(),
            "flowlet_100us"
        );
        assert_eq!(
            flowbender(::flowbender::Config::default().with_n(3)).slug(),
            "flowbender_n_3"
        );
    }

    #[test]
    fn parameterized_names_distinguish_variants() {
        let a = flowbender(::flowbender::Config::default());
        let b = flowbender(::flowbender::Config::default().with_t(0.01));
        let c = flowlet(netsim::SimTime::from_us(500));
        assert_eq!(a.name(), "FlowBender");
        assert_ne!(a.name(), b.name());
        assert_eq!(c.name(), "Flowlet(500us)");
    }

    #[test]
    fn scheme_configs_are_consistent() {
        for s in registry() {
            let sw = s.switch_config();
            let tcp = s.tcp_config();
            tcp.validate();
            match s.name() {
                "RPS" => assert_eq!(sw.scheme, netsim::ForwardingScheme::Rps),
                "DeTail" => {
                    assert_eq!(sw.scheme, netsim::ForwardingScheme::Adaptive);
                    assert!(sw.pfc.is_some());
                    assert_eq!(tcp.dupack_threshold, None);
                }
                name if name.starts_with("Flowlet") => {
                    assert!(matches!(
                        sw.scheme,
                        netsim::ForwardingScheme::Flowlet { .. }
                    ))
                }
                name if name.starts_with("Flowcut-SW") => {
                    assert!(matches!(
                        sw.scheme,
                        netsim::ForwardingScheme::Flowcut { .. }
                    ));
                    assert!(tcp.path.is_none(), "switch flowcuts need no host help");
                }
                _ => {
                    assert_eq!(sw.scheme, netsim::ForwardingScheme::EcmpHash);
                    assert!(sw.pfc.is_none());
                }
            }
            if s.name() == "FlowBender" {
                assert!(!tcp.path.is_none());
            }
            if s.name() == "ECMP" || s.name() == "RPS" || s.name() == "DeTail" {
                assert!(tcp.path.is_none());
            }
            match s.name() {
                "Bender-INT" => {
                    let fb = sw.feedback.expect("Bender-INT needs INT stamping");
                    assert!(fb.int_stamp);
                    assert!(fb.cn_threshold.is_none(), "Bender-INT is INT-only");
                    assert!(!tcp.path.is_none());
                }
                "FastCC" => {
                    let fb = sw.feedback.expect("FastCC needs CN feedback");
                    assert!(!fb.int_stamp);
                    assert_eq!(fb.cn_threshold, Some(90_000));
                    assert_eq!(tcp, TcpConfig::default(), "FastCC runs the stock stack");
                }
                _ => assert!(sw.feedback.is_none(), "{}: unexpected feedback", s.name()),
            }
        }
    }

    #[test]
    #[should_panic(expected = "T must be a fraction")]
    fn flowbender_scheme_rejects_a_bad_config_at_construction() {
        flowbender(::flowbender::Config::default().with_t(1.5));
    }

    #[test]
    fn only_repflow_replicates() {
        for s in registry() {
            if s.name() == "RepFlow" {
                let r = s.replication().expect("RepFlow replicates");
                assert_eq!(r.max_bytes, 100_000);
                assert_ne!(r.replica_v, 0, "replica must differ from primaries");
            } else {
                assert!(s.replication().is_none(), "{}", s.name());
            }
        }
    }
}
