//! The workload registry: every traffic pattern as one named,
//! parameterized [`Workload`] selectable by slug — the traffic-side twin
//! of the experiments crate's `Scheme` registry.
//!
//! The set is closed: [`Workload`] is an enum with one variant per
//! pattern, and each operation is one `match`. Adding a workload is one
//! variant, one arm per operation, one line in [`registry`] and one arm in
//! [`find`]; its generator goes in [`crate::gen`]. Experiments select a
//! generator with `--workload <slug>` instead of hard-coding free
//! functions.
//!
//! | slug | pattern |
//! |------|---------|
//! | `websearch` | Poisson all-to-all, web-search flow sizes |
//! | `datamining` | Poisson all-to-all, data-mining flow sizes |
//! | `alltoall` | Poisson all-to-all, fixed 1 MB flows |
//! | `incast:<fanin>` | partition-aggregate jobs, `<fanin>`:1 (to 1000:1 and beyond) |
//! | `hotspot:<skew>` | Zipf(`<skew>`)-skewed destination matrix |
//! | `onoff:<burst>` | ON/OFF bursty senders at `<burst>`× peak rate |
//!
//! Parameters are bounded to what the generators can meaningfully take
//! ([`PARAM_FORMS`]).

use netsim::{DetRng, FlowSpec, SimTime};
use topology::FatTreeParams;

use crate::dist::FlowSizeDist;
use crate::gen;
use crate::patterns;

/// Each incast job's total payload: 1 MB split evenly across the workers,
/// the paper's Figure 5 configuration.
const INCAST_JOB_BYTES: u64 = 1_000_000;

/// One named traffic pattern: everything a runner needs to generate the
/// offered load, plus how to present it.
///
/// `load` is the same unit everywhere: average pod-uplink utilization
/// (the paper's "% of bisection bandwidth"), so workloads are swappable
/// under a fixed load point. Generators return dense, arrival-sorted flow
/// ids `0..n` and draw all randomness from the caller's [`DetRng`].
/// Build the parameterized variants through [`crate::patterns`], which
/// validates the parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The paper's §4.2.2 evaluation workload (Figures 3/4): Poisson
    /// all-to-all with [`FlowSizeDist::web_search`] sizes.
    Websearch,
    /// Poisson all-to-all with [`FlowSizeDist::data_mining`] sizes: ≈80 %
    /// of flows under 10 KB, ≈95 % of bytes in the >1 MB tail.
    Datamining,
    /// Poisson all-to-all with every flow exactly 1 MB: the constant-size
    /// control for separating size-distribution effects from routing.
    AllToAll,
    /// The paper's §4.2.4 partition-aggregate jobs: Poisson job arrivals,
    /// each `fan_in` synchronized workers sending to one random aggregator.
    Incast {
        /// Workers per job.
        fan_in: u32,
    },
    /// Zipf-skewed all-to-all: the destination with rank `j` (by host id)
    /// is drawn with weight `1/(j+1)^skew`, so a few hosts soak up most of
    /// the traffic and the links around them become persistent hotspots.
    /// Web-search sizes.
    Hotspot {
        /// Zipf exponent; 0 is the uniform all-to-all.
        skew: f64,
    },
    /// ON/OFF bursty senders: each host alternates exponential ON and OFF
    /// periods, sending only while ON at `burst`× the calibrated average
    /// rate. The time-average load matches the uniform all-to-all, but
    /// arrivals come in squalls. Web-search sizes.
    OnOff {
        /// Peak-to-average rate ratio (the inverse duty cycle).
        burst: f64,
    },
}

impl Workload {
    /// Display name, parameters included (e.g. `Incast(32:1)`).
    pub fn name(&self) -> String {
        match *self {
            Workload::Websearch => "Websearch".into(),
            Workload::Datamining => "Datamining".into(),
            Workload::AllToAll => "AllToAll(1MB)".into(),
            Workload::Incast { fan_in } => format!("Incast({fan_in}:1)"),
            Workload::Hotspot { skew } => format!("Hotspot(z={skew})"),
            Workload::OnOff { burst } => format!("OnOff(burst={burst})"),
        }
    }

    /// One-line description for the registry table.
    pub fn brief(&self) -> String {
        match *self {
            Workload::Websearch => {
                "Poisson all-to-all, heavy-tailed web-search flow sizes (Fig. 3/4)".into()
            }
            Workload::Datamining => {
                "Poisson all-to-all, extreme-tailed data-mining flow sizes (VL2)".into()
            }
            Workload::AllToAll => {
                "Poisson all-to-all, fixed 1 MB flows (size-distribution control)".into()
            }
            Workload::Incast { fan_in } => format!(
                "partition-aggregate jobs, {fan_in} synchronized senders per aggregator (Fig. 5)"
            ),
            Workload::Hotspot { skew } => {
                format!("Poisson senders, Zipf(s={skew}) destination skew pinning hotspots")
            }
            Workload::OnOff { burst } => {
                format!("ON/OFF bursty senders, {burst}x peak rate at 1/{burst} duty cycle")
            }
        }
    }

    /// Generate the flow list for one run.
    pub fn generate(
        &self,
        p: &FatTreeParams,
        load: f64,
        duration: SimTime,
        rng: &mut DetRng,
    ) -> Vec<FlowSpec> {
        match *self {
            Workload::Websearch | Workload::Datamining | Workload::AllToAll => {
                let dist = self.stream_dist().expect("a Poisson all-to-all streams");
                gen::all_to_all(p, load, duration, &dist, rng)
            }
            Workload::Incast { fan_in } => {
                gen::partition_aggregate(p, load, fan_in, INCAST_JOB_BYTES, duration, rng)
            }
            Workload::Hotspot { skew } => gen::zipf_hotspot(p, load, duration, skew, rng),
            Workload::OnOff { burst } => gen::onoff(p, load, duration, burst, rng),
        }
    }

    /// Whether a fabric of `n_hosts` can carry this workload; `Err` says
    /// what it needs. Checked by the CLI before anything runs, so
    /// [`Workload::generate`] may assert it.
    pub fn check_hosts(&self, n_hosts: usize) -> Result<(), String> {
        match *self {
            // An aggregator and `fan_in` distinct workers.
            Workload::Incast { fan_in } if fan_in as usize >= n_hosts => Err(format!(
                "incast fan-in {fan_in} needs more than {fan_in} hosts"
            )),
            _ => Ok(()),
        }
    }

    /// For workloads that are memory-less Poisson all-to-all processes:
    /// the size distribution, enabling the O(hosts)-memory streaming path
    /// ([`crate::stream::PoissonStream`]) at millions of flows. `None`
    /// for patterns with cross-flow structure (jobs, bursts, pinned
    /// hotspots) that need the batch generator.
    pub fn stream_dist(&self) -> Option<FlowSizeDist> {
        match *self {
            Workload::Websearch => Some(FlowSizeDist::web_search()),
            Workload::Datamining => Some(FlowSizeDist::data_mining()),
            Workload::AllToAll => Some(FlowSizeDist::Fixed(1_000_000)),
            Workload::Incast { .. } | Workload::Hotspot { .. } | Workload::OnOff { .. } => None,
        }
    }

    /// The [`slug`] of the name (`Incast(32:1)` → `incast_32_1`).
    pub fn slug(&self) -> String {
        slug(&self.name())
    }
}

/// File-system/JSON-label-safe form of a display name: lowercase, with
/// every run of non-alphanumerics collapsed to one underscore
/// (`Incast(32:1)` → `incast_32_1`, `Flowlet(100us)` → `flowlet_100us`).
/// Workloads and the experiments crate's schemes both label runs with it.
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Every registered workload with default parameters, in deterministic
/// presentation order: the paper's patterns first, then the extensions.
pub fn registry() -> Vec<Workload> {
    vec![
        Workload::Websearch,
        Workload::Datamining,
        Workload::AllToAll,
        patterns::incast(32),
        patterns::zipf_hotspot(1.0),
        patterns::onoff(5.0),
    ]
}

/// The parameterized forms [`find`] accepts, with their bounds — for error
/// messages. Fan-in stops at the largest buildable fabric (k=64: 65 536
/// hosts); past skew 10 every flow targets host 0, and below 0.001 the
/// matrix is uniform (write 0); past burst 1000 a source is silent for
/// seconds between squalls. The bounds also keep [`Workload::slug`] a
/// usable file name.
pub const PARAM_FORMS: &str =
    "incast:<fan-in 1..=65535>, hotspot:<skew 0 or 0.001..=10>, onoff:<burst 1..=1000>";

/// Look a workload up by slug, case-insensitively, with optional
/// parameter: `incast:1000`, `hotspot:1.2`, `onoff:8` (also accepted as
/// `incast(1000)`). Matches the full display name, the base name, the
/// slug, and common underscore aliases (`web_search`, `data_mining`,
/// `all_to_all`, `on_off`). `None` for unknown names or parameters outside
/// [`PARAM_FORMS`] — callers should print the registry, like the scheme
/// CLI does.
pub fn find(name: &str) -> Option<Workload> {
    let want = name.trim().to_ascii_lowercase();
    // Split `base:param` / `base(param)` forms.
    let (base, param) = match want.split_once(':') {
        Some((b, p)) => (b.to_string(), Some(p.trim().to_string())),
        None => match want.split_once('(') {
            Some((b, p)) => (
                b.to_string(),
                Some(p.trim_end_matches(')').trim().to_string()),
            ),
            None => (want.clone(), None),
        },
    };
    // Collapse separators so `web_search` and `web-search` hit `websearch`.
    let canon: String = base.chars().filter(|c| c.is_ascii_alphanumeric()).collect();
    match canon.as_str() {
        "websearch" => param.is_none().then_some(Workload::Websearch),
        "datamining" => param.is_none().then_some(Workload::Datamining),
        "alltoall" => param.is_none().then_some(Workload::AllToAll),
        "incast" => {
            let fan_in = match param {
                Some(p) => p.parse::<u32>().ok().filter(|f| (1..=65_535).contains(f))?,
                None => 32,
            };
            Some(patterns::incast(fan_in))
        }
        "hotspot" => {
            let skew = match param {
                Some(p) => p
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s == 0.0 || (0.001..=10.0).contains(s))?,
                None => 1.0,
            };
            Some(patterns::zipf_hotspot(skew))
        }
        "onoff" => {
            let burst = match param {
                Some(p) => p
                    .parse::<f64>()
                    .ok()
                    .filter(|b| (1.0..=1000.0).contains(b))?,
                None => 5.0,
            };
            Some(patterns::onoff(burst))
        }
        // Fall through to exact full-name/slug matches against the
        // registry defaults (`incast_32_1`, `Hotspot(z=1)`, ...).
        _ => registry().into_iter().find(|w| {
            let full = w.name().to_ascii_lowercase();
            want == full || want == w.slug()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_deterministic_and_named_uniquely() {
        let a = registry();
        let names: Vec<String> = a.iter().map(|w| w.name()).collect();
        let b: Vec<String> = registry().iter().map(|w| w.name()).collect();
        assert_eq!(names, b);
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names must be unique: {names:?}");
        for w in &a {
            assert!(!w.brief().is_empty(), "{}: brief", w.name());
            assert!(!w.slug().is_empty(), "{}: slug", w.name());
        }
    }

    #[test]
    fn find_matches_slug_alias_and_param_forms() {
        assert_eq!(find("websearch").unwrap().name(), "Websearch");
        assert_eq!(find("web_search").unwrap().name(), "Websearch");
        assert_eq!(find("WebSearch").unwrap().name(), "Websearch");
        assert_eq!(find("data_mining").unwrap().name(), "Datamining");
        assert_eq!(find("all_to_all").unwrap().name(), "AllToAll(1MB)");
        assert_eq!(find("incast").unwrap().name(), "Incast(32:1)");
        assert_eq!(find("incast:1000").unwrap().name(), "Incast(1000:1)");
        assert_eq!(find("incast(64)").unwrap().name(), "Incast(64:1)");
        assert_eq!(find("incast_32_1").unwrap().name(), "Incast(32:1)");
        assert_eq!(find("hotspot").unwrap().name(), "Hotspot(z=1)");
        assert_eq!(find("hotspot:1.5").unwrap().name(), "Hotspot(z=1.5)");
        assert_eq!(find("onoff").unwrap().name(), "OnOff(burst=5)");
        assert_eq!(find("on_off:8").unwrap().name(), "OnOff(burst=8)");
        assert!(find("vl2").is_none());
        assert!(find("incast:zero").is_none(), "bad parameter is an error");
        assert!(find("incast:0").is_none(), "fan-in must be >= 1");
        assert!(find("onoff:0.5").is_none(), "burst must be >= 1");
    }

    /// Parameters are bounded ([`PARAM_FORMS`]): non-finite, huge and
    /// vanishing values are refused, the edges are accepted, and no
    /// accepted value makes a label too long for a file name.
    #[test]
    fn find_bounds_every_parameter() {
        for bad in [
            "incast:65536",
            "incast:4294967296",
            "incast:-1",
            "hotspot:1e308",
            "hotspot:10.5",
            "hotspot:1e-300",
            "hotspot:-0.5",
            "hotspot:nan",
            "hotspot:inf",
            "onoff:1e30",
            "onoff:1001",
            "onoff:inf",
            "onoff:nan",
        ] {
            assert!(find(bad).is_none(), "{bad} must be refused");
        }
        for ok in [
            "incast:1",
            "incast:65535",
            "hotspot:0",
            "hotspot:0.001",
            "hotspot:10",
            "hotspot:1.0000000000000002",
            "onoff:1",
            "onoff:1000",
            "onoff:999.9999999999999",
        ] {
            let w = find(ok).unwrap_or_else(|| panic!("{ok} must be accepted"));
            assert!(w.slug().len() <= 64, "{ok}: slug {}", w.slug());
        }
    }

    #[test]
    fn slugs_are_label_safe_and_roundtrip_through_find() {
        for w in registry() {
            let slug = w.slug();
            assert!(
                slug.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "slug {slug} not label-safe"
            );
            let back = find(&slug).unwrap_or_else(|| panic!("slug {slug} not findable"));
            assert_eq!(back.name(), w.name(), "slug {slug} round-trips");
        }
    }

    #[test]
    fn only_memoryless_all_to_alls_stream() {
        for w in registry() {
            let streams = w.stream_dist().is_some();
            let expect = matches!(
                w.slug().as_str(),
                "websearch" | "datamining" | "alltoall_1mb"
            );
            assert_eq!(streams, expect, "{}", w.name());
        }
    }
}
