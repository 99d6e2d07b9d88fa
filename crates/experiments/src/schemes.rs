//! The scheme registry: every evaluated load-balancing design as one
//! [`Scheme`] — fabric side ([`netsim::SwitchConfig`]) and host side
//! ([`transport::TcpConfig`], whose [`transport::PathSpec`] names the
//! per-flow [`transport::PathControl`] and its parameters), both plain
//! `Copy` data.
//!
//! The set is closed: [`Scheme`] is an enum with one variant per design,
//! and each operation is one `match` — the fabric-side twin of the
//! `workloads` crate's `Workload`. Adding a scheme is one variant, one arm
//! per operation and one line in [`registry`].
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

use netsim::{FlowcutConfig, HashConfig, SimTime, SwitchConfig};
use transport::{PathSpec, TcpConfig};

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Commodity ECMP: per-flow static hashing, stock DCTCP hosts. The
    /// hash covers the V-field too (it never changes, so routing is
    /// unaffected), which keeps the fabric identical to FlowBender's and
    /// isolates the host policy as the only difference.
    Ecmp,
    /// The paper's scheme: end-host path control over a commodity
    /// V-field-hashing fabric, with the given tuning.
    FlowBender(flowbender::Config),
    /// Random packet spraying: every packet independently takes a
    /// uniformly random equal-cost port; hosts run stock DCTCP and absorb
    /// the reordering.
    Rps,
    /// DeTail-style: switches pick the least-queued eligible port per
    /// packet and generate PFC pause frames; hosts disable fast retransmit
    /// because a lossless fabric turns every dupack burst into reordering
    /// noise.
    DeTail,
    /// Switch-side flowlet switching (LetFlow-style) with the given
    /// inactivity gap.
    Flowlet(SimTime),
    /// Host-side gap switching: the sender re-draws its V-field whenever
    /// its ACK stream has been idle longer than the gap (the pipe has
    /// drained, so a path change cannot reorder). Same commodity fabric as
    /// FlowBender; the whole mechanism is a [`flowbender::FlowcutGap`].
    Flowcut(SimTime),
    /// Switch-side flowcuts (Bonato et al.) with the given idle-gap
    /// boundary. A flowcut ends when the flow has been idle at the switch
    /// longer than the gap; at that boundary the switch re-picks the
    /// least-queued live egress (the pick DeTail makes per packet), unless
    /// the pinned port is uncongested — then it holds. Mid-flowcut packets
    /// never move, so the receiver sees every byte in order.
    FlowcutSw(SimTime),
    /// RepFlow (Xu & Li, INFOCOM 2014 flavor): every TCP flow shorter than
    /// 100 KB is sent twice over the ECMP fabric, the duplicate pinned to
    /// V = 1 while the primary keeps V = 0, and the first copy to finish
    /// defines the flow's completion time. No host rerouting at all.
    RepFlow,
}

impl Scheme {
    /// Display name, parameters included (e.g. `Flowlet(100us)`,
    /// `FlowBender(T=0.01,N=3)`).
    pub fn name(&self) -> String {
        match *self {
            Scheme::Ecmp => "ECMP".into(),
            Scheme::FlowBender(cfg) => flowbender_name(&cfg),
            Scheme::Rps => "RPS".into(),
            Scheme::DeTail => "DeTail".into(),
            Scheme::Flowlet(gap) => format!("Flowlet({})", fmt_gap(gap)),
            Scheme::Flowcut(gap) => format!("Flowcut({})", fmt_gap(gap)),
            Scheme::FlowcutSw(gap) => format!("Flowcut-SW({})", fmt_gap(gap)),
            Scheme::RepFlow => "RepFlow".into(),
        }
    }

    /// The [`workloads::slug`] of the name (`FlowBender` → `flowbender`,
    /// `Flowlet(100us)` → `flowlet_100us`).
    pub fn slug(&self) -> String {
        workloads::slug(&self.name())
    }

    /// The switch configuration this scheme needs.
    pub fn switch_config(&self) -> SwitchConfig {
        match *self {
            Scheme::Ecmp | Scheme::FlowBender(_) | Scheme::Flowcut(_) | Scheme::RepFlow => {
                SwitchConfig::commodity(HashConfig::FiveTupleAndVField)
            }
            Scheme::Rps => SwitchConfig::rps(),
            Scheme::DeTail => SwitchConfig::detail(),
            Scheme::Flowlet(gap) => SwitchConfig::flowlet(gap),
            Scheme::FlowcutSw(gap) => SwitchConfig::flowcut_sw(FlowcutConfig::new(gap)),
        }
    }

    /// The host TCP configuration this scheme needs.
    pub fn tcp_config(&self) -> TcpConfig {
        match *self {
            Scheme::FlowBender(cfg) => TcpConfig::flowbender(cfg),
            Scheme::DeTail => TcpConfig::detail(),
            Scheme::Flowcut(gap) => TcpConfig::with_path(PathSpec::Flowcut {
                gap,
                v_range: flowbender::Config::default().v_range,
            }),
            Scheme::Ecmp
            | Scheme::Rps
            | Scheme::Flowlet(_)
            | Scheme::FlowcutSw(_)
            | Scheme::RepFlow => TcpConfig::default(),
        }
    }

    /// The fabric-side one-line description.
    pub fn fabric_desc(&self) -> &'static str {
        match self {
            Scheme::Ecmp | Scheme::FlowBender(_) | Scheme::Flowcut(_) | Scheme::RepFlow => {
                "static 5-tuple+V hash"
            }
            Scheme::Rps => "per-packet uniform random spray",
            Scheme::DeTail => "per-packet least-queued adaptive + PFC",
            Scheme::Flowlet(_) => "switch flowlet tables, random port per new flowlet",
            Scheme::FlowcutSw(_) => "switch flowcut tables, least-queued port at boundaries only",
        }
    }

    /// The host-side one-line description.
    pub fn host_desc(&self) -> String {
        match *self {
            Scheme::Ecmp | Scheme::Rps | Scheme::Flowlet(_) | Scheme::FlowcutSw(_) => {
                "DCTCP".into()
            }
            Scheme::FlowBender(cfg) => format!("DCTCP + FlowBender (T={}, N={})", cfg.t, cfg.n),
            Scheme::DeTail => "DCTCP, fast retransmit off".into(),
            Scheme::Flowcut(_) => "DCTCP + V re-draw after idle ACK gaps".into(),
            Scheme::RepFlow => {
                "DCTCP; flows < 100KB sent twice (V=0 and V=1), first finisher wins".into()
            }
        }
    }

    /// The one-line scheme description.
    pub fn brief_desc(&self) -> &'static str {
        match self {
            Scheme::Ecmp => "per-flow static hashing; the baseline all results normalize to",
            Scheme::FlowBender(_) => {
                "end-host rerouting by rewriting V when the marked-ACK fraction crosses T"
            }
            Scheme::Rps => "per-packet spraying; best balance, worst reordering",
            Scheme::DeTail => "lossless adaptive fabric; needs switch changes and PFC headroom",
            Scheme::Flowlet(_) => "bursts re-balance at idle gaps; needs per-flow switch state",
            Scheme::Flowcut(_) => {
                "host-side flowlets: re-path only when the pipe is provably empty"
            }
            Scheme::FlowcutSw(_) => {
                "adaptive re-routing with in-order delivery: move only when the pipe is empty"
            }
            Scheme::RepFlow => "short-flow replication buys path diversity without any rerouting",
        }
    }

    /// The replication policy, if this scheme duplicates short flows.
    pub fn replication(&self) -> Option<Replication> {
        match self {
            Scheme::RepFlow => Some(Replication {
                max_bytes: 100_000,
                replica_v: 1,
            }),
            _ => None,
        }
    }
}

/// `FlowBender` for the paper's defaults, `FlowBender(...)` listing every
/// field that deviates from them, so sweeps over tunings stay
/// distinguishable in reports.
fn flowbender_name(cfg: &flowbender::Config) -> String {
    let d = flowbender::Config::default();
    if *cfg == d {
        return "FlowBender".to_string();
    }
    let mut parts = Vec::new();
    if cfg.t != d.t {
        parts.push(format!("T={}", cfg.t));
    }
    if cfg.n != d.n {
        parts.push(format!("N={}", cfg.n));
    }
    if cfg.v_range != d.v_range {
        parts.push(format!("V={}", cfg.v_range));
    }
    if cfg.randomize_n != d.randomize_n {
        parts.push("randN".to_string());
    }
    if let Some(g) = cfg.ewma_gamma {
        parts.push(format!("ewma={g}"));
    }
    if cfg.cooldown_rtts != d.cooldown_rtts {
        parts.push(format!("cooldown={}", cfg.cooldown_rtts));
    }
    if cfg.reroute_on_timeout != d.reroute_on_timeout {
        parts.push("noTO".to_string());
    }
    format!("FlowBender({})", parts.join(","))
}

/// Render a flowlet/flowcut gap compactly for a scheme name: whole
/// microseconds as `100us`, anything finer in ns.
fn fmt_gap(gap: SimTime) -> String {
    let ps = gap.as_ps();
    if ps.is_multiple_of(1_000_000) {
        format!("{}us", ps / 1_000_000)
    } else {
        format!("{}ns", ps as f64 / 1_000.0)
    }
}

/// Every registered scheme, in deterministic presentation order: the
/// paper's four first, then the extensions.
pub fn registry() -> [Scheme; 8] {
    let gap = SimTime::from_us(100);
    [
        Scheme::Ecmp,
        Scheme::FlowBender(flowbender::Config::default()),
        Scheme::Rps,
        Scheme::DeTail,
        Scheme::Flowlet(gap),
        Scheme::Flowcut(gap),
        Scheme::FlowcutSw(gap),
        Scheme::RepFlow,
    ]
}

/// The paper's four evaluated schemes, in its presentation order.
pub fn paper_set() -> Vec<Scheme> {
    registry()[..4].to_vec()
}

/// Look a scheme up by name, case-insensitively. Matches the full
/// display name (`Flowlet(100us)`), the base name before any parameter
/// list (`flowlet`), or the slug (`flowlet_100us`).
pub fn find(name: &str) -> Option<Scheme> {
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
    use netsim::ForwardingScheme;

    #[test]
    fn registry_is_deterministic_and_named_uniquely() {
        let a = registry();
        assert_eq!(a, registry());
        let names: Vec<String> = a.iter().map(Scheme::name).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names must be unique: {names:?}");
        for s in &a {
            assert!(!s.fabric_desc().is_empty(), "{s:?}: fabric desc");
            assert!(!s.host_desc().is_empty(), "{s:?}: host desc");
            assert!(!s.brief_desc().is_empty(), "{s:?}: brief");
        }
    }

    #[test]
    fn paper_set_matches_the_paper_order() {
        let names: Vec<String> = paper_set().iter().map(Scheme::name).collect();
        assert_eq!(names, ["ECMP", "FlowBender", "RPS", "DeTail"]);
    }

    #[test]
    fn find_matches_full_base_and_slug_case_insensitively() {
        let gap = SimTime::from_us(100);
        let fb = Scheme::FlowBender(flowbender::Config::default());
        assert_eq!(find("flowbender"), Some(fb));
        assert_eq!(find("ECMP"), Some(Scheme::Ecmp));
        assert_eq!(find("Flowlet(100us)"), Some(Scheme::Flowlet(gap)));
        assert_eq!(find("flowlet"), Some(Scheme::Flowlet(gap)));
        assert_eq!(find("flowlet_100us"), Some(Scheme::Flowlet(gap)));
        assert_eq!(find("flowcut-sw"), Some(Scheme::FlowcutSw(gap)));
        assert_eq!(find("flowcut_sw_100us"), Some(Scheme::FlowcutSw(gap)));
        assert_eq!(find("flowcut"), Some(Scheme::Flowcut(gap)));
        assert_eq!(find("repflow"), Some(Scheme::RepFlow));
        assert!(find("vlb").is_none());
    }

    #[test]
    fn slugs_are_label_safe() {
        let fb = |cfg| Scheme::FlowBender(cfg);
        assert_eq!(fb(flowbender::Config::default()).slug(), "flowbender");
        assert_eq!(
            Scheme::Flowlet(SimTime::from_us(100)).slug(),
            "flowlet_100us"
        );
        assert_eq!(
            fb(flowbender::Config::default().with_n(3)).slug(),
            "flowbender_n_3"
        );
    }

    #[test]
    fn parameterized_names_distinguish_variants() {
        let a = Scheme::FlowBender(flowbender::Config::default());
        let b = Scheme::FlowBender(flowbender::Config::default().with_t(0.01));
        let c = Scheme::Flowlet(SimTime::from_us(500));
        assert_eq!(a.name(), "FlowBender");
        assert_ne!(a.name(), b.name());
        assert_eq!(c.name(), "Flowlet(500us)");
        assert_eq!(
            Scheme::Flowcut(SimTime::from_ns(1500)).name(),
            "Flowcut(1500ns)"
        );
    }

    #[test]
    fn default_config_keeps_the_bare_name() {
        assert_eq!(
            Scheme::FlowBender(flowbender::Config::default()).name(),
            "FlowBender"
        );
    }

    #[test]
    fn deviations_show_up_in_the_name() {
        let name = |cfg| Scheme::FlowBender(cfg).name();
        let d = flowbender::Config::default();
        assert_eq!(name(d.with_t(0.01).with_n(3)), "FlowBender(T=0.01,N=3)");
        assert_eq!(name(d.with_ewma(0.75)), "FlowBender(ewma=0.75)");
    }

    #[test]
    fn scheme_configs_are_consistent() {
        for s in registry() {
            let sw = s.switch_config();
            let tcp = s.tcp_config();
            tcp.validate();
            match s {
                Scheme::Ecmp | Scheme::RepFlow => {
                    assert_eq!(sw.scheme, ForwardingScheme::EcmpHash);
                    assert_eq!(tcp, TcpConfig::default());
                }
                Scheme::FlowBender(_) | Scheme::Flowcut(_) => {
                    assert_eq!(sw.scheme, ForwardingScheme::EcmpHash);
                    assert!(!tcp.path.is_none());
                }
                Scheme::Rps => {
                    assert_eq!(sw.scheme, ForwardingScheme::Rps);
                    assert!(tcp.path.is_none());
                }
                Scheme::DeTail => {
                    assert_eq!(sw.scheme, ForwardingScheme::Adaptive);
                    assert!(sw.pfc.is_some());
                    assert_eq!(tcp.dupack_threshold, None);
                    assert!(tcp.path.is_none());
                }
                Scheme::Flowlet(_) => {
                    assert!(matches!(sw.scheme, ForwardingScheme::Flowlet { .. }))
                }
                Scheme::FlowcutSw(_) => {
                    assert!(matches!(sw.scheme, ForwardingScheme::Flowcut { .. }));
                    assert!(tcp.path.is_none(), "switch flowcuts need no host help");
                }
            }
            assert_eq!(sw.pfc.is_some(), s == Scheme::DeTail, "{s:?}");
        }
    }

    #[test]
    fn only_repflow_replicates() {
        for s in registry() {
            if s == Scheme::RepFlow {
                let r = s.replication().expect("RepFlow replicates");
                assert_eq!(r.max_bytes, 100_000);
                assert_ne!(r.replica_v, 0, "replica must differ from primaries");
            } else {
                assert!(s.replication().is_none(), "{s:?}");
            }
        }
    }
}
