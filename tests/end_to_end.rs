//! Workspace-level integration tests: the full stack (topology + transport
//! + workloads + stats) exercised end-to-end on paper-shaped scenarios.

use flowbender::Config as FbConfig;
use netsim::{Counter, DetRng, FlowSpec, SimTime, Simulator};
use topology::{build_fat_tree, build_testbed, FatTreeParams, TestbedParams};
use transport::{install_agents, TcpConfig};
use workloads::{all_to_all, microbench, FlowSizeDist};

/// Helper: run an all-to-all workload on the tiny fat-tree under a scheme.
fn tiny_all_to_all(scheme: &experiments::Scheme, seed: u64) -> netsim::Recorder {
    let params = FatTreeParams::tiny();
    let mut rng = DetRng::new(seed, 1);
    let dist = FlowSizeDist::web_search();
    let specs = all_to_all(&params, 0.4, SimTime::from_ms(20), &dist, &mut rng);
    let mut sim = Simulator::new(seed);
    build_fat_tree(&mut sim, params, scheme.switch_config());
    install_agents(&mut sim, &specs, &scheme.tcp_config());
    sim.run_until(SimTime::from_secs(10));
    sim.into_recorder()
}

#[test]
fn all_schemes_complete_all_to_all_traffic() {
    for scheme in experiments::schemes::paper_set() {
        let rec = tiny_all_to_all(&scheme, 3);
        let total = rec.flows().len();
        let done = rec.completed_count();
        assert!(total > 50, "workload too small: {total}");
        assert_eq!(done, total, "{}: {done}/{total} completed", scheme.name());
    }
}

#[test]
fn conservation_data_packets_received_cover_flow_bytes() {
    // Every byte of every flow must arrive at least once: the sum of flow
    // sizes bounds the unique data delivered; received packets * MSS must
    // cover it (retransmits can only add).
    let rec = tiny_all_to_all(&experiments::Scheme::Ecmp, 5);
    let total_bytes: u64 = rec.flows().iter().map(|f| f.bytes).sum();
    let delivered_capacity = rec.get(Counter::DataPktsRcvd) * netsim::MSS as u64;
    assert!(
        delivered_capacity >= total_bytes,
        "delivered {delivered_capacity} < offered {total_bytes}"
    );
}

#[test]
fn ecmp_never_reorders_or_reroutes() {
    let rec = tiny_all_to_all(&experiments::Scheme::Ecmp, 7);
    assert_eq!(
        rec.get(Counter::OooPktsRcvd),
        0,
        "static hashing cannot reorder"
    );
    assert_eq!(rec.get(Counter::Reroutes), 0);
    assert_eq!(rec.get(Counter::TimeoutReroutes), 0);
}

#[test]
fn reordering_ranks_match_the_paper() {
    // FlowBender reorders a little; RPS and DeTail reorder a lot.
    let fb = tiny_all_to_all(&experiments::Scheme::FlowBender(FbConfig::default()), 7);
    let rps = tiny_all_to_all(&experiments::Scheme::Rps, 7);
    let detail = tiny_all_to_all(&experiments::Scheme::DeTail, 7);
    let frac = |r: &netsim::Recorder| {
        r.get(Counter::OooPktsRcvd) as f64 / r.get(Counter::DataPktsRcvd).max(1) as f64
    };
    let (f, p, d) = (frac(&fb), frac(&rps), frac(&detail));
    assert!(
        f > 0.0,
        "FlowBender should reroute (and thus reorder) a little"
    );
    assert!(
        p > 3.0 * f,
        "RPS ({p:.4}) should reorder much more than FlowBender ({f:.4})"
    );
    assert!(
        d > 3.0 * f,
        "DeTail ({d:.4}) should reorder much more than FlowBender ({f:.4})"
    );
}

#[test]
fn full_paper_fat_tree_microbenchmark_runs_deterministically() {
    let run = || {
        let params = FatTreeParams::paper();
        let mut sim = Simulator::new(11);
        build_fat_tree(
            &mut sim,
            params,
            netsim::SwitchConfig::commodity(netsim::HashConfig::FiveTupleAndVField),
        );
        let specs = microbench(&params, 16, 2_000_000);
        install_agents(
            &mut sim,
            &specs,
            &TcpConfig::flowbender(FbConfig::default()),
        );
        sim.run_until(SimTime::from_secs(10));
        let ends: Vec<_> = sim.recorder().flows().iter().map(|f| f.end).collect();
        (ends, sim.events_processed())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce bit-for-bit");
    assert!(a.1 > 100_000, "expected a substantial event count");
}

#[test]
fn different_seeds_change_microscopic_but_not_macroscopic_outcomes() {
    let fcts = |seed: u64| {
        let rec = tiny_all_to_all(&experiments::Scheme::FlowBender(FbConfig::default()), seed);
        let v: Vec<f64> = rec
            .flows()
            .iter()
            .filter_map(|f| f.fct())
            .map(|t| t.as_secs_f64())
            .collect();
        v
    };
    let a = fcts(100);
    let b = fcts(101);
    // Different seed, same workload model: means within 3x of each other,
    // but not the identical trajectory.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert_ne!(a, b);
    let (ma, mb) = (mean(&a), mean(&b));
    assert!(
        ma / mb < 3.0 && mb / ma < 3.0,
        "means diverged: {ma} vs {mb}"
    );
}

#[test]
fn testbed_and_fat_tree_share_transport_behaviour() {
    // The same flow spec on the two fabrics completes in comparable time
    // (both provide a 10G path with similar delay structure).
    let fct_on = |is_testbed: bool| {
        let mut sim = Simulator::new(13);
        let specs = vec![FlowSpec::tcp(0, 0, 60, 2_000_000, SimTime::ZERO)];
        if is_testbed {
            build_testbed(
                &mut sim,
                TestbedParams::paper(),
                netsim::SwitchConfig::commodity(netsim::HashConfig::FiveTupleAndVField),
            );
        } else {
            build_fat_tree(
                &mut sim,
                FatTreeParams::paper(),
                netsim::SwitchConfig::commodity(netsim::HashConfig::FiveTupleAndVField),
            );
        }
        install_agents(&mut sim, &specs, &TcpConfig::default());
        sim.run_until(SimTime::from_secs(5));
        sim.recorder().flows()[0]
            .fct()
            .expect("flow completes")
            .as_secs_f64()
    };
    let tb = fct_on(true);
    let ft = fct_on(false);
    assert!(
        (tb / ft) < 1.5 && (ft / tb) < 1.5,
        "testbed {tb} vs fat-tree {ft}"
    );
}

#[test]
fn flowbender_with_two_v_options_still_effective() {
    // Footnote 2 of the paper: even V range 2 works. 8 colliding flows on
    // the tiny fabric must finish no slower than ECMP's worst flow.
    let params = FatTreeParams::tiny();
    let mk = |cfg: TcpConfig| {
        let mut sim = Simulator::new(21);
        build_fat_tree(
            &mut sim,
            params,
            netsim::SwitchConfig::commodity(netsim::HashConfig::FiveTupleAndVField),
        );
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 5_000_000, SimTime::ZERO))
            .collect();
        install_agents(&mut sim, &specs, &cfg);
        sim.run_until(SimTime::from_secs(10));
        sim.recorder()
            .flows()
            .iter()
            .filter_map(|f| f.fct())
            .map(|t| t.as_secs_f64())
            .fold(0.0, f64::max)
    };
    let ecmp_worst = mk(TcpConfig::default());
    let fb2_worst = mk(TcpConfig::flowbender(FbConfig::default().with_v_range(2)));
    assert!(
        fb2_worst <= ecmp_worst * 1.05,
        "V-range-2 worst {fb2_worst} vs ECMP worst {ecmp_worst}"
    );
}
