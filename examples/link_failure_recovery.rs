//! Link-failure recovery: the paper's §3.3.2 claim that FlowBender routes
//! around a broken path "essentially within an RTO", orders of magnitude
//! faster than routing reconvergence.
//!
//! We run 16 cross-pod flows, kill one agg→core link mid-transfer, and
//! watch what happens under ECMP (flows hashed onto the dead link
//! black-hole forever — routing never reconverges in this run, as in a
//! real datacenter for O(seconds)) versus FlowBender (an RTO fires, the
//! sender re-hashes, the flow finishes).
//!
//! ```text
//! cargo run --release --example link_failure_recovery
//! ```

use flowbender::Config;
use netsim::{Counter, FaultPlan, SimTime, Simulator};
use topology::{build_fat_tree, FatTreeParams};
use transport::{install_agents, TcpConfig};
use workloads::microbench;

fn run(label: &str, tcp: TcpConfig) {
    let params = FatTreeParams::paper();
    let mut sim = Simulator::new(99);
    let ft = build_fat_tree(
        &mut sim,
        params,
        netsim::SwitchConfig::commodity(netsim::HashConfig::FiveTupleAndVField),
    );
    // 16 x 5MB flows, ToR0/pod0 -> ToR0/pod1.
    let specs = microbench(&params, 16, 5_000_000);
    install_agents(&mut sim, &specs, &tcp);
    // At t = 2ms, agg0 of pod0 loses its first core uplink.
    let (node, port) = ft.agg_core_link(0, 0);
    sim.install_faults(FaultPlan::new().kill(node, port, SimTime::from_ms(2)));
    sim.run_until(SimTime::from_secs(30));

    let rec = sim.recorder();
    let fcts: Vec<f64> = rec
        .flows()
        .iter()
        .filter_map(|f| f.fct())
        .map(|t| t.as_secs_f64())
        .collect();
    let worst = fcts.iter().cloned().fold(0.0, f64::max);
    println!(
        "{label:12} completed {:2}/16   timeouts {:3}   timeout-reroutes {:3}   worst FCT {}",
        fcts.len(),
        rec.get(Counter::Timeouts),
        rec.get(Counter::TimeoutReroutes),
        if fcts.len() == 16 {
            format!("{:.1} ms", worst * 1e3)
        } else {
            "stuck".into()
        },
    );
}

fn main() {
    println!("one agg->core link dies at t=2ms under 16 cross-pod flows:\n");
    run("ECMP", TcpConfig::default());
    run("FlowBender", TcpConfig::flowbender(Config::default()));
    println!("\nECMP flows whose hash lands on the dead link retransmit into a");
    println!("black hole forever. FlowBender treats the RTO as a failure signal");
    println!("and picks a new V: typically one RTO_min (10ms) to recover; an");
    println!("unlucky flow may re-roll onto the dead path a few times (the");
    println!("paper: 'a couple of attempts before things are straightened out'),");
    println!("but statistical drift always wins — unlike ECMP, which never does.");
}
