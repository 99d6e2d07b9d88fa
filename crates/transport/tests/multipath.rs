//! End-to-end behaviour of the full stack on multipath fabrics: does
//! FlowBender actually bend?

use flowbender as fb;
use netsim::{Counter, FaultPlan, FlowSpec, HashConfig, SimTime, Simulator, SwitchConfig};
use topology::{build_testbed, TestbedParams};
use transport::{install_agents, TcpConfig};

/// Two ToRs, 4 paths between them (tiny testbed). `n` long flows from
/// ToR-0 hosts to ToR-1 hosts.
fn cross_tor_run(cfg: TcpConfig, n: u32, bytes: u64, seed: u64) -> (netsim::Recorder, SimTime) {
    let mut sim = Simulator::new(seed);
    let tb = build_testbed(
        &mut sim,
        TestbedParams {
            servers_per_tor: vec![8; 2],
        },
        SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
    );
    let specs: Vec<FlowSpec> = (0..n)
        .map(|i| {
            let src = i % 8;
            let dst = 8 + (i % 8);
            FlowSpec::tcp(i, src, dst, bytes, SimTime::ZERO)
        })
        .collect();
    install_agents(&mut sim, &specs, &cfg);
    sim.run_until(SimTime::from_secs(30));
    let _ = tb;
    let now = sim
        .recorder()
        .flows()
        .iter()
        .filter_map(|f| f.fct())
        .max()
        .unwrap_or(SimTime::ZERO);
    (sim.into_recorder(), now)
}

#[test]
fn flowbender_reroutes_under_collision_and_improves_tail() {
    // 8 flows over 4 paths: ECMP will collide some of them. FlowBender
    // must (a) actually reroute, (b) not hurt completion, and (c) tighten
    // the max/mean FCT ratio versus plain ECMP (the paper's Table-1
    // "quality of load balancing" measure).
    let bytes = 20_000_000; // 20 MB each
    let (ecmp, _) = cross_tor_run(TcpConfig::default(), 8, bytes, 3);
    let (bender, _) = cross_tor_run(TcpConfig::flowbender(fb::Config::default()), 8, bytes, 3);

    assert_eq!(ecmp.completed_count(), 8);
    assert_eq!(bender.completed_count(), 8);
    assert!(
        bender.get(Counter::Reroutes) > 0,
        "FlowBender never rerouted"
    );

    let spread = |rec: &netsim::Recorder| {
        let fcts: Vec<f64> = rec
            .flows()
            .iter()
            .map(|f| f.fct().unwrap().as_secs_f64())
            .collect();
        let mean = fcts.iter().sum::<f64>() / fcts.len() as f64;
        let max = fcts.iter().cloned().fold(0.0, f64::max);
        (mean, max / mean)
    };
    let (ecmp_mean, ecmp_ratio) = spread(&ecmp);
    let (fb_mean, fb_ratio) = spread(&bender);
    // FlowBender must not be meaningfully slower on average and must have
    // a tighter (or equal) max/mean spread.
    assert!(
        fb_mean <= ecmp_mean * 1.10,
        "FlowBender mean {fb_mean} vs ECMP {ecmp_mean}"
    );
    assert!(
        fb_ratio <= ecmp_ratio + 0.05,
        "FlowBender spread {fb_ratio} vs ECMP {ecmp_ratio}"
    );
}

#[test]
fn flowbender_routes_around_link_failure_within_rto_scale() {
    // One long flow; at t=2ms one of the 4 ToR uplinks dies (whichever the
    // flow is on — we fail all four sequentially in separate runs and
    // check the flow always finishes; with plain ECMP the flow wedges
    // whenever its hashed path is the dead one).
    let bytes = 50_000_000;
    let mut bender_all_finish = true;
    let mut ecmp_wedged_somewhere = false;

    for dead_uplink in 0..4u16 {
        for (is_bender, cfg) in [
            (false, TcpConfig::default()),
            (true, TcpConfig::flowbender(fb::Config::default())),
        ] {
            let mut sim = Simulator::new(99);
            let tb = build_testbed(
                &mut sim,
                TestbedParams {
                    servers_per_tor: vec![2; 2],
                },
                SwitchConfig::commodity(HashConfig::FiveTupleAndVField),
            );
            let specs = vec![FlowSpec::tcp(0, 0, 2, bytes, SimTime::ZERO)];
            install_agents(&mut sim, &specs, &cfg);
            let uplink = tb.tor_uplinks[0][dead_uplink as usize];
            sim.install_faults(FaultPlan::new().kill(tb.tors[0], uplink, SimTime::from_ms(2)));
            sim.run_until(SimTime::from_secs(20));
            let done = sim.recorder().completed_count() == 1;
            if is_bender {
                bender_all_finish &= done;
                if done {
                    let fct = sim.recorder().flows()[0].fct().unwrap();
                    // Even when its path died, recovery is RTO-scale: the
                    // whole 50MB flow (~40ms at line rate) still finishes promptly,
                    // not the seconds of a routing reconvergence.
                    assert!(fct < SimTime::from_secs(2), "fct = {fct}");
                }
            } else if !done {
                ecmp_wedged_somewhere = true;
            }
        }
    }
    assert!(
        bender_all_finish,
        "FlowBender must survive any single uplink failure"
    );
    assert!(
        ecmp_wedged_somewhere,
        "test vacuous: ECMP never hashed onto the failed link in any variant"
    );
}

#[test]
fn detail_stack_is_lossless_and_completes() {
    // DeTail switches (adaptive + PFC) with fast retransmit disabled:
    // heavy cross-ToR load must complete without a single queue drop.
    let mut sim = Simulator::new(17);
    let _tb = build_testbed(
        &mut sim,
        TestbedParams {
            servers_per_tor: vec![8; 2],
        },
        SwitchConfig::detail(),
    );
    let specs: Vec<FlowSpec> = (0..16)
        .map(|i| FlowSpec::tcp(i, i % 8, 8 + ((i + 3) % 8), 2_000_000, SimTime::ZERO))
        .collect();
    install_agents(&mut sim, &specs, &TcpConfig::detail());
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(sim.recorder().completed_count(), 16);
    assert_eq!(
        sim.recorder().get(Counter::QueueDrops),
        0,
        "PFC fabric must be lossless"
    );
    assert!(
        sim.recorder().get(Counter::PfcPauses) > 0,
        "expected PFC activity under load"
    );
    // Per-packet adaptive routing reorders heavily.
    assert!(sim.recorder().get(Counter::OooPktsRcvd) > 0);
}

#[test]
fn rps_sprays_and_reorders() {
    let mut sim = Simulator::new(23);
    let _tb = build_testbed(
        &mut sim,
        TestbedParams {
            servers_per_tor: vec![4; 2],
        },
        SwitchConfig::rps(),
    );
    // Use the dupack-threshold-30 stack so spraying-induced reordering
    // doesn't trigger spurious fast retransmits (the paper's testbed
    // re-check); RPS evaluations in the paper still use 3 — both complete.
    let cfg = TcpConfig {
        dupack_threshold: Some(30),
        ..TcpConfig::default()
    };
    let specs: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec::tcp(i, i, 4 + i, 5_000_000, SimTime::ZERO))
        .collect();
    install_agents(&mut sim, &specs, &cfg);
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(sim.recorder().completed_count(), 4);
    let data = sim.recorder().get(Counter::DataPktsRcvd);
    let ooo = sim.recorder().get(Counter::OooPktsRcvd);
    assert!(
        ooo > data / 100,
        "RPS should reorder noticeably: {ooo}/{data}"
    );
}

#[test]
fn ecmp_without_vfield_ignores_bending() {
    // Control experiment: if switches hash only the 5-tuple, changing V
    // does nothing — FlowBender still "reroutes" but paths never change,
    // so colliding flows stay collided. We check it runs and completes
    // (the scheme degrades to ECMP, not to breakage).
    let mut sim = Simulator::new(31);
    let _tb = build_testbed(
        &mut sim,
        TestbedParams {
            servers_per_tor: vec![4; 2],
        },
        SwitchConfig::commodity(HashConfig::FiveTuple),
    );
    let specs: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec::tcp(i, i, 4 + i, 2_000_000, SimTime::ZERO))
        .collect();
    install_agents(
        &mut sim,
        &specs,
        &TcpConfig::flowbender(fb::Config::default()),
    );
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(sim.recorder().completed_count(), 4);
}
