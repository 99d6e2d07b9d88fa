//! §4.3.1 — decongesting hotspots: a 14 Gbps TCP shuffle between two ToRs
//! shares 4 × 10 Gbps paths with a 6 Gbps rate-limited UDP flow pinned (by
//! its static hash) to one path `U`.
//!
//! Paper's result: ECMP obliviously keeps ≈ 14/4 = 3.5 Gbps of TCP on `U`
//! (≈ 9.5 Gbps total — "practically unstable"), while FlowBender migrates
//! TCP off the hotspot, leaving only ≈ 1.5 Gbps on `U` and splitting the
//! rest across the three clean paths.

use netsim::{Proto, SimTime};
use stats::{fmt_gbps, Table};
use topology::TestbedParams;
use workloads::hotspot;

use crate::report::{Opts, Report};
use crate::scenario::{parallel_map, run_testbed};
use crate::schemes::Scheme;

/// Per-path throughput for one scheme.
#[derive(Debug)]
pub struct PathLoads {
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// TCP Gbps per uplink (path) of the sending ToR.
    pub tcp_gbps: Vec<f64>,
    /// UDP Gbps per uplink.
    pub udp_gbps: Vec<f64>,
}

impl PathLoads {
    /// Index of the hotspot path `U` (where UDP landed).
    pub fn hotspot_path(&self) -> usize {
        self.udp_gbps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("at least one path")
    }

    /// TCP throughput on the hotspot path.
    pub fn tcp_on_hotspot(&self) -> f64 {
        self.tcp_gbps[self.hotspot_path()]
    }
}

/// Run the hotspot experiment for the given schemes.
pub fn sweep(opts: &Opts, schemes: &[Scheme]) -> Vec<PathLoads> {
    opts.validate();
    let params = TestbedParams::paper();
    let duration = opts.scaled(SimTime::from_ms(100));
    let src_tor = 0..params.servers_per_tor[0];
    let dst_tor = params.servers_per_tor[0]..params.servers_per_tor[0] + params.servers_per_tor[1];

    parallel_map(schemes.to_vec(), |scheme| {
        let mut rng = netsim::DetRng::new(opts.seed, 0x4075);
        let specs = hotspot(
            src_tor.clone(),
            dst_tor.clone(),
            14e9,
            6_000_000_000,
            1_000_000,
            duration,
            &mut rng,
        );
        debug_assert!(specs.iter().any(|s| s.proto == Proto::Udp));
        let watch: Vec<(usize, usize)> = (0..TestbedParams::AGGS).map(|a| (0usize, a)).collect();
        // No drain: throughput is measured over exactly `duration`.
        let out = run_testbed(params.clone(), &scheme, &specs, duration, opts.seed, &watch);
        let secs = duration.as_secs_f64();
        PathLoads {
            scheme: scheme.name().to_string(),
            tcp_gbps: out
                .port_stats
                .iter()
                .map(|p| p.tx_bytes_tcp as f64 * 8.0 / secs / 1e9)
                .collect(),
            udp_gbps: out
                .port_stats
                .iter()
                .map(|p| p.tx_bytes_udp as f64 * 8.0 / secs / 1e9)
                .collect(),
        }
    })
}

/// Produce the hotspot report.
pub fn run(opts: &Opts) -> Report {
    let loads = sweep(
        opts,
        &opts.scheme_selection(&[
            Scheme::Ecmp,
            Scheme::FlowBender(flowbender::Config::default()),
        ]),
    );
    let mut table = Table::new(vec!["scheme", "path", "TCP", "UDP", "total", "hotspot?"]);
    for pl in &loads {
        let hot = pl.hotspot_path();
        for (i, (&t, &u)) in pl.tcp_gbps.iter().zip(&pl.udp_gbps).enumerate() {
            table.row(vec![
                pl.scheme.to_string(),
                i.to_string(),
                fmt_gbps(t * 1e9),
                fmt_gbps(u * 1e9),
                fmt_gbps((t + u) * 1e9),
                if i == hot {
                    "U".to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    let mut r = Report::new("hotspot");
    r.section(
        "§4.3.1: TCP/UDP throughput per path (UDP pinned to path U)",
        table,
    );
    for pl in &loads {
        r.note(format!(
            "{}: TCP on hotspot path U = {:.2} Gbps",
            pl.scheme,
            pl.tcp_on_hotspot()
        ));
    }
    r.note("paper: ECMP leaves ~3.5 Gbps of TCP on U (~9.5 Gbps total); FlowBender ~1.5 Gbps");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowbender_moves_tcp_off_the_hotspot() {
        let opts = Opts {
            scale: 0.5,
            seed: 4,
            ..Opts::default()
        };
        let loads = sweep(
            &opts,
            &[
                Scheme::Ecmp,
                Scheme::FlowBender(flowbender::Config::default()),
            ],
        );
        let ecmp = &loads[0];
        let fb = &loads[1];
        // UDP pinned: its whole ~6 Gbps sits on one path in both runs.
        for pl in [&ecmp, &fb] {
            let udp_total: f64 = pl.udp_gbps.iter().sum();
            assert!((5.0..6.5).contains(&udp_total), "udp total {udp_total}");
            let hot = pl.hotspot_path();
            assert!(
                pl.udp_gbps[hot] > 0.9 * udp_total,
                "UDP not pinned to one path"
            );
        }
        // ECMP keeps roughly a fair quarter of TCP on U; FlowBender
        // substantially less.
        let e = ecmp.tcp_on_hotspot();
        let f = fb.tcp_on_hotspot();
        assert!(e > 2.0, "ECMP TCP on U = {e} Gbps (expected ~3.5)");
        assert!(f < e * 0.75, "FlowBender TCP on U = {f} vs ECMP {e}");
    }
}
