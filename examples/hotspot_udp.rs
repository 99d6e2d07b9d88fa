//! UDP hotspot decongestion (paper §4.3.1): a rate-limited 6 Gbps UDP
//! flow is pinned by its static hash to one of the 4 paths between two
//! ToRs while a 14 Gbps TCP shuffle shares the same path set.
//!
//! Ideal behaviour: the 14 Gbps of TCP squeezes onto the three clean paths
//! (14/3 < 10 - plenty) and leaves the UDP path alone. ECMP can't do that
//! — it keeps hashing ~a quarter of the TCP onto the hotspot. FlowBender
//! senses the marks and bends away.
//!
//! ```text
//! cargo run --release --example hotspot_udp
//! ```

use experiments::{hotspot, report::Opts, Scheme};

fn main() {
    let opts = Opts {
        scale: 1.0,
        seed: 4,
        ..Opts::default()
    };
    println!("14 Gbps TCP shuffle + 6 Gbps UDP pinned to one of 4 ToR-to-ToR paths\n");
    let loads = hotspot::sweep(
        &opts,
        &[
            Scheme::Ecmp,
            Scheme::FlowBender(flowbender::Config::default()),
        ],
    );
    for pl in &loads {
        let hot = pl.hotspot_path();
        println!("{}:", pl.scheme);
        for (i, (&t, &u)) in pl.tcp_gbps.iter().zip(&pl.udp_gbps).enumerate() {
            println!(
                "  path {i}{}  TCP {t:5.2} Gbps   UDP {u:5.2} Gbps   total {:5.2} Gbps",
                if i == hot { " (U)" } else { "    " },
                t + u
            );
        }
        println!(
            "  -> TCP riding on the hotspot: {:.2} Gbps\n",
            pl.tcp_on_hotspot()
        );
    }
    println!("paper: ECMP leaves ~3.5 Gbps of TCP on U; FlowBender ~1.5 Gbps.");
}
