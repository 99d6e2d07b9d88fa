//! One benchmark per paper table/figure, each running a scaled-down
//! instance of the corresponding experiment. These are regression canaries
//! for simulation throughput: `cargo bench` regenerates a miniature of
//! every artifact; the full-size numbers come from the `experiments`
//! binary (see EXPERIMENTS.md).

use std::hint::black_box;

use experiments::Scheme;
use experiments::{run_fat_tree, run_testbed, RunOutput, Window};
use fb_bench::Harness;
use netsim::event::EventKind;
use netsim::{DetRng, FaultPlan, SimTime, Simulator};
use topology::{build_fat_tree, degrade_agg_core_link, FatTreeParams, TestbedParams};
use transport::install_agents;
use workloads::{
    all_to_all, hotspot, microbench, partition_aggregate, testbed_one_tor, FlowSizeDist,
};

fn fb() -> Scheme {
    Scheme::FlowBender(flowbender::Config::default())
}

/// What one run of a row did: the packets it delivered — the unit the row's
/// rate is reported in, because an engine change can move how many events a
/// packet costs but not how many packets the scenario delivers — and the
/// events it took, by kind.
struct Work {
    pkts: u64,
    mix: [u64; EventKind::COUNT],
}

impl Work {
    fn of(out: &RunOutput) -> Work {
        Work {
            pkts: out.conservation.delivered,
            mix: out.event_mix(),
        }
    }

    fn of_sim(sim: &Simulator) -> Work {
        Work {
            pkts: sim.packets_delivered(),
            mix: sim.event_mix(),
        }
    }
}

/// Bench a deterministic scenario. One untimed run up front sizes
/// `elements`, so every row reports delivered packets per second, and says
/// where the events went.
fn bench_run(h: &Harness, name: &str, mut run: impl FnMut() -> Work) {
    if !h.selected(name) {
        return;
    }
    let work = run();
    h.bench(name, work.pkts, || black_box(run().pkts));
    let events: u64 = work.mix.iter().sum();
    let mix: Vec<String> = EventKind::NAMES
        .iter()
        .zip(work.mix)
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!(
        "{:<40} {:.2} events/pkt: {}",
        "",
        events as f64 / work.pkts.max(1) as f64,
        mix.join(", ")
    );
}

/// Table 1 miniature: 8 x 1 MB ToR-to-ToR flows under FlowBender.
fn bench_table1(h: &Harness) {
    let params = FatTreeParams::paper();
    let specs = microbench(&params, 8, 1_000_000);
    bench_run(h, "paper/table1_microbench", || {
        Work::of(&run_fat_tree(
            params,
            &fb(),
            &specs,
            SimTime::from_secs(5),
            1,
        ))
    });
}

/// Figures 3/4 miniature: a 3 ms all-to-all slice at 40 % (the mean and
/// the p99 of the same run feed Fig 3 and Fig 4).
fn bench_fig3_fig4(h: &Harness) {
    let params = FatTreeParams::paper();
    let duration = SimTime::from_ms(3);
    let window = Window::for_duration(duration, SimTime::from_ms(100));
    let mut rng = DetRng::new(1, 1);
    let specs = all_to_all(
        &params,
        0.4,
        duration,
        &FlowSizeDist::web_search(),
        &mut rng,
    );
    for (name, scheme) in [
        ("paper/fig3_alltoall_mean_flowbender", fb()),
        ("paper/fig4_alltoall_tail_ecmp", Scheme::Ecmp),
    ] {
        bench_run(h, name, || {
            let out = run_fat_tree(params, &scheme, &specs, window.drain_until, 1);
            let s = stats::samples(&out.flows, window.start, window.end);
            let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
            black_box((stats::mean(&fcts), stats::percentile(&fcts, 0.99)));
            Work::of(&out)
        });
    }
}

/// Figure 5 miniature: partition-aggregate jobs at fan-in 8 for 3 ms.
fn bench_fig5(h: &Harness) {
    let params = FatTreeParams::paper();
    let mut rng = DetRng::new(1, 2);
    let specs = partition_aggregate(&params, 0.4, 8, 1_000_000, SimTime::from_ms(3), &mut rng);
    bench_run(h, "paper/fig5_incast", || {
        let out = run_fat_tree(params, &fb(), &specs, SimTime::from_ms(200), 1);
        black_box(stats::job_completion(&out.flows));
        Work::of(&out)
    });
}

/// Figures 6/7 miniature: one non-default knob each (N = 3, T = 1 %).
fn bench_fig6_fig7(h: &Harness) {
    let params = FatTreeParams::paper();
    let duration = SimTime::from_ms(3);
    let mut rng = DetRng::new(1, 3);
    let specs = all_to_all(
        &params,
        0.4,
        duration,
        &FlowSizeDist::web_search(),
        &mut rng,
    );
    for (name, cfg) in [
        (
            "paper/fig6_sensitivity_n",
            flowbender::Config::default().with_n(3),
        ),
        (
            "paper/fig7_sensitivity_t",
            flowbender::Config::default().with_t(0.01),
        ),
    ] {
        bench_run(h, name, || {
            Work::of(&run_fat_tree(
                params,
                &Scheme::FlowBender(cfg),
                &specs,
                SimTime::from_ms(200),
                1,
            ))
        });
    }
}

/// Figure 8 miniature: 10 ms of the one-ToR testbed workload at 40 %.
fn bench_fig8(h: &Harness) {
    let params = TestbedParams::paper();
    let mut rng = DetRng::new(1, 4);
    let specs = testbed_one_tor(
        &params,
        0..params.servers_per_tor[0],
        params.n_hosts(),
        0.4,
        1_000_000,
        SimTime::from_ms(10),
        &mut rng,
    );
    bench_run(h, "paper/fig8_testbed", || {
        Work::of(&run_testbed(
            params.clone(),
            &fb(),
            &specs,
            SimTime::from_ms(300),
            1,
            &[],
        ))
    });
}

/// §4.3.1 miniature: 5 ms of the 14 Gbps TCP + 6 Gbps UDP hotspot.
fn bench_hotspot(h: &Harness) {
    let params = TestbedParams::paper();
    let duration = SimTime::from_ms(5);
    let mut rng = DetRng::new(1, 5);
    let s0 = params.servers_per_tor[0];
    let specs = hotspot(
        0..s0,
        s0..s0 + params.servers_per_tor[1],
        14e9,
        6_000_000_000,
        1_000_000,
        duration,
        &mut rng,
    );
    let watch: Vec<(usize, usize)> = (0..TestbedParams::AGGS).map(|a| (0usize, a)).collect();
    bench_run(h, "paper/hotspot_decongest", || {
        let out = run_testbed(params.clone(), &fb(), &specs, duration, 1, &watch);
        black_box(out.port_stats.iter().map(|p| p.tx_bytes_tcp).sum::<u64>());
        Work::of(&out)
    });
}

/// §3.3.2 miniature: link failure under 8 x 1 MB flows.
fn bench_link_failure(h: &Harness) {
    let params = FatTreeParams::paper();
    let specs = microbench(&params, 8, 1_000_000);
    bench_run(h, "paper/link_failure_recovery", || {
        let mut sim = Simulator::new(9);
        let ft = build_fat_tree(&mut sim, params, fb().switch_config());
        install_agents(&mut sim, &specs, &fb().tcp_config());
        let (node, port) = ft.agg_core_link(0, 0);
        sim.install_faults(FaultPlan::new().kill(node, port, SimTime::from_us(200)));
        sim.run_until(SimTime::from_secs(5));
        black_box(sim.recorder().completed_count());
        Work::of_sim(&sim)
    });
}

/// Ablation miniature: two FlowBender variants on the same 3 ms slice
/// (paper default vs the §5.1 cooldown guard).
fn bench_ablation(h: &Harness) {
    let params = FatTreeParams::paper();
    let mut rng = DetRng::new(1, 6);
    let specs = all_to_all(
        &params,
        0.4,
        SimTime::from_ms(3),
        &FlowSizeDist::web_search(),
        &mut rng,
    );
    for (name, cfg) in [
        ("paper/ablation_default", flowbender::Config::default()),
        (
            "paper/ablation_cooldown",
            flowbender::Config::default().with_cooldown(3),
        ),
    ] {
        bench_run(h, name, || {
            Work::of(&run_fat_tree(
                params,
                &Scheme::FlowBender(cfg),
                &specs,
                SimTime::from_ms(200),
                1,
            ))
        });
    }
}

/// §4.3.1 asymmetry miniature: one degraded agg->core link under the
/// microbenchmark with FlowBender compensating (the scenario of
/// `experiments::asym::run_config`, which does not hand out its ledger).
fn bench_asym(h: &Harness) {
    let params = FatTreeParams::paper();
    let specs = microbench(&params, 16, 1_000_000);
    bench_run(h, "paper/asym_wcmp_compensation", || {
        let mut sim = Simulator::new(1);
        let ft = build_fat_tree(&mut sim, params, fb().switch_config());
        degrade_agg_core_link(&mut sim, &ft, 0, 0, 0, 5_000_000_000, false);
        install_agents(&mut sim, &specs, &fb().tcp_config());
        sim.run_until(SimTime::from_secs(120));
        black_box(sim.recorder().completed_count());
        Work::of_sim(&sim)
    });
}

/// §4.3.3 miniature: the same slice on the tiny fabric (path-diversity
/// scaling uses `paper_wide` in the full experiment; benches stay small).
fn bench_topo_dep(h: &Harness) {
    let params = FatTreeParams::tiny();
    let mut rng = DetRng::new(1, 7);
    let specs = all_to_all(
        &params,
        0.4,
        SimTime::from_ms(5),
        &FlowSizeDist::web_search(),
        &mut rng,
    );
    bench_run(h, "paper/topo_dep_tiny_fabric", || {
        Work::of(&run_fat_tree(
            params,
            &fb(),
            &specs,
            SimTime::from_ms(300),
            1,
        ))
    });
}

fn main() {
    let h = Harness::from_args();
    bench_table1(&h);
    bench_fig3_fig4(&h);
    bench_fig5(&h);
    bench_fig6_fig7(&h);
    bench_fig8(&h);
    bench_hotspot(&h);
    bench_link_failure(&h);
    bench_ablation(&h);
    bench_asym(&h);
    bench_topo_dep(&h);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    h.write_json(out).expect("write BENCH_paper.json");
}
