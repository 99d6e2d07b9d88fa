//! Queue-occupancy trace: watch DCTCP hold a congested switch queue near
//! the marking threshold K — the property FlowBender's congestion signal
//! (the fraction of marked ACKs) is built on.
//!
//! Four senders share one 10 Gbps downlink. The ASCII strip chart shows
//! the queue hovering around K = 90 KB instead of filling the 2 MB buffer.
//!
//! ```text
//! cargo run --release --example queue_occupancy
//! ```

use netsim::{
    FlowSpec, HashConfig, LinkSpec, RoutingTable, SeriesKey, SimTime, Simulator, SwitchConfig,
    TelemetryConfig,
};
use transport::{install_agents, TcpConfig};

fn main() {
    let mut sim = Simulator::new(5);
    let senders: Vec<_> = (0..4).map(|_| sim.add_host_default()).collect();
    let rx = sim.add_host_default();
    let sw = sim.add_switch(SwitchConfig::commodity(HashConfig::FiveTupleAndVField));
    for &s in &senders {
        sim.connect(s, sw, LinkSpec::host_10g());
    }
    let (_, _) = sim.connect(rx, sw, LinkSpec::host_10g());
    let mut rt = RoutingTable::new(5);
    for i in 0..4 {
        rt.set(i, vec![i as u16]);
    }
    rt.set(4, vec![4]);
    sim.set_routes(sw, rt);

    // Four long flows into host 4; the switch's port 4 is the bottleneck.
    let specs: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec::tcp(i, i, 4, 20_000_000, SimTime::ZERO))
        .collect();
    install_agents(&mut sim, &specs, &TcpConfig::default());

    // Record the bottleneck queue's depth, at most one point per 100 us
    // (the series holds the post-enqueue occupancy, so it ends when the
    // flows do, a little before 70 ms).
    sim.set_telemetry(TelemetryConfig::every(SimTime::from_us(100)));
    sim.run_until(SimTime::from_ms(80));

    let bottleneck = SeriesKey::QueueDepth { node: sw, port: 4 };
    let series = sim.recorder().telemetry().series();
    let samples: Vec<(SimTime, u64)> = series
        .iter()
        .find(|s| s.key() == bottleneck)
        .expect("the bottleneck egress queued packets")
        .points()
        .iter()
        .map(|&(t, b)| (t, b as u64))
        .collect();
    let k = 90_000u64;
    let max = samples.iter().map(|&(_, b)| b).max().unwrap_or(0).max(k);
    println!("bottleneck queue occupancy, 4-way DCTCP share of one 10G link");
    println!("K = 90KB marking threshold; buffer = 2MB; '*' = sample, '|' = K\n");
    // Render every 20th sample as one row of a horizontal strip chart.
    for chunk in samples.chunks(20) {
        let (t, b) = chunk[chunk.len() / 2];
        let width = 60usize;
        let pos = (b as usize * width) / max as usize;
        let kpos = (k as usize * width) / max as usize;
        let mut row: Vec<char> = vec![' '; width + 1];
        row[kpos.min(width)] = '|';
        row[pos.min(width)] = '*';
        let line: String = row.into_iter().collect();
        println!("{:>8.2}ms {:>7}B {}", t.as_ms_f64(), b, line);
    }
    let mean = samples.iter().map(|&(_, b)| b as f64).sum::<f64>() / samples.len() as f64;
    println!(
        "\nmean occupancy {:.0}B vs K = {}B — DCTCP parks the queue at the",
        mean, k
    );
    println!("threshold, which is what makes the marked-ACK fraction a prompt,");
    println!("proportional congestion signal for FlowBender to act on.");
}
