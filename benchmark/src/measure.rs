//! Measure one workload: warm-up, timed repetitions, the correctness gate,
//! and the mapping from what was observed to named metrics.

use std::time::Instant;

use netsim::Counter;

use crate::host;
use crate::probes::{self, ShardProbe, UnitCosts};
use crate::report::Report;
use crate::run::{run_rep, Facts, Rep};
use crate::statx;
use crate::trace::{self, Tracer};
use crate::workload::Workload;

/// Timed repetitions every median rests on, at least.
pub const MIN_REPS: usize = 5;
/// Traced/untraced repetition pairs of a traced run.
const TRACED_PAIRS: usize = 3;

pub struct Config {
    pub seed: u64,
    /// How long the whole measurement may take, warm-up included: no
    /// repetition beyond the first [`MIN_REPS`] is started that would end
    /// later than this.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The correctness gate, applied to every repetition (warm-up included).
struct Gate<'a> {
    /// Flows the generator produced.
    offered: u64,
    /// The warm-up's result, which every repetition must reproduce.
    reference: &'a Facts,
    violations: Vec<String>,
}

impl Gate<'_> {
    fn check(&mut self, rep: &Facts, which: &str) {
        let out = &mut self.violations;
        if !rep.ledger.holds() {
            out.push(format!(
                "{which}: packet conservation violated: {}",
                rep.ledger
            ));
        }
        if rep.events != self.reference.events {
            out.push(format!(
                "{which}: {} events, warm-up had {}",
                rep.events, self.reference.events
            ));
        }
        if rep.digest != self.reference.digest {
            out.push(format!(
                "{which}: result digest {:016x} differs from the warm-up's {:016x}",
                rep.digest, self.reference.digest
            ));
        }
        // Every offered flow is on the books, completed or not.
        if rep.flows_recorded != self.offered {
            out.push(format!(
                "{which}: {} flows offered but {} recorded",
                self.offered, rep.flows_recorded
            ));
        }
    }
}

/// A timed repetition and the calibration readings taken on either side
/// of it (their mean).
struct Timed {
    rep: Rep,
    calib_ns: f64,
}

fn timed_rep(w: &Workload, seed: u64, smoke: bool, tracer: &mut Tracer) -> Timed {
    let before = host::calib_ns();
    let rep = run_rep(w, seed, smoke, tracer);
    Timed {
        rep,
        calib_ns: (before + host::calib_ns()) / 2.0,
    }
}

/// One reading per repetition.
fn col<'a>(reps: impl IntoIterator<Item = &'a Timed>, f: impl Fn(&Timed) -> f64) -> Vec<f64> {
    reps.into_iter().map(f).collect()
}

/// Run `w` per `cfg` and report. Never panics on a failed check: the
/// report says `correct: false`, counts every operation failed, and the
/// caller exits non-zero.
pub fn measure(w: &'static Workload, cfg: &Config) -> (Report, Tracer) {
    let started = Instant::now();
    let mut tracer = Tracer::new(w.name, cfg.traced);
    let mut off = Tracer::new(w.name, false);
    let (seed, smoke) = (cfg.seed, cfg.smoke);

    // Warm-up: page in the binary, size the allocator's arenas, and fix
    // the reference result every timed repetition must reproduce. It is
    // also the one complete repetition the process has made before the
    // calibration kernel brings its own 5 MiB: the high-water mark now is
    // the program's.
    let warm = run_rep(w, seed, smoke, &mut off);
    let peak_rss_mib = host::peak_rss_mib();
    let mut longest = started.elapsed().as_secs_f64();
    let facts = &warm.facts;
    let mut gate = Gate {
        offered: w.generate(seed, smoke).specs.len() as u64,
        reference: facts,
        violations: Vec::new(),
    };
    gate.check(facts, "warm-up");

    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut span_marks: Vec<(usize, usize)> = Vec::new();
    if cfg.traced {
        for i in 0..if smoke { 1 } else { TRACED_PAIRS } {
            let p = timed_rep(w, seed, smoke, &mut off);
            gate.check(&p.rep.facts, &format!("rep {i}"));
            plain.push(p);
            let mark = tracer.spans().len();
            let t = timed_rep(w, seed, smoke, &mut tracer);
            gate.check(&t.rep.facts, &format!("traced rep {i}"));
            traced.push(t);
            span_marks.push((mark, tracer.spans().len()));
        }
    } else {
        let (min_reps, seconds) = if smoke {
            (1, 0.0)
        } else {
            (MIN_REPS, cfg.seconds)
        };
        // The slowest repetition so far is the estimate of the next one.
        while plain.len() < min_reps || started.elapsed().as_secs_f64() + longest < seconds {
            let t = Instant::now();
            let r = timed_rep(w, seed, smoke, &mut off);
            longest = longest.max(t.elapsed().as_secs_f64());
            gate.check(&r.rep.facts, &format!("rep {}", plain.len()));
            plain.push(r);
        }
    }
    for (i, r) in plain.iter().enumerate() {
        let t = &r.rep.timings;
        println!(
            "rep {i}: wall_s={:.4} cpu_s={:.4} setup_s={:.4} calib_ns={:.0} steal={:.3}",
            t.run.wall_s, t.run.cpu_s, t.setup_s, r.calib_ns, t.run.steal_share
        );
    }

    let Gate {
        offered,
        violations,
        ..
    } = gate;
    let correct = violations.is_empty();
    let mut report = Report {
        workload: w.name,
        seed,
        traced: cfg.traced,
        smoke,
        reps: plain.len(),
        correct,
        attempted: offered.max(1),
        // A run that breaks a check has no trustworthy result at all.
        failed: if correct {
            facts.tcp_offered - facts.tcp_completed
        } else {
            offered.max(1)
        },
        violations,
        values: Vec::new(),
    };

    let wall = col(&plain, |r| r.rep.timings.run.wall_s);
    if !cfg.traced {
        put_end_to_end(&mut report, facts, &plain);
        report.put("peak_rss_mib", peak_rss_mib);
    }
    put_outcomes(&mut report, w, facts);
    put_counts(&mut report, w, facts);
    report.put_timed(
        "netsim.event.events_per_s",
        &col(&plain, |r| facts.events as f64 / r.rep.timings.run.wall_s),
    );

    if cfg.traced {
        put_spans(&mut report, &tracer, &span_marks, &traced);
        let wall_s = statx::median(&wall);
        let traced_wall_s = statx::median(&col(&traced, |r| r.rep.timings.run.wall_s));
        report.put("trace.overhead_share", (traced_wall_s - wall_s) / wall_s);

        let costs = probes::unit_costs(w, if smoke { 1 } else { probes::BATCHES });
        for (name, samples) in &costs.samples {
            report.put_timed(name, samples);
        }
        put_shares(&mut report, w, facts, &costs, wall_s);
        put_shard(&mut report, &probes::shard_probe(seed, smoke));
    }

    // ---- host health, per repetition (plain medians) ----
    let all = || plain.iter().chain(&traced);
    report.put_timed("host.calib_ns", &col(all(), |r| r.calib_ns));
    report.put_timed(
        "host.steal_share",
        &col(all(), |r| r.rep.timings.run.steal_share),
    );
    report.put_timed("cpu_s", &col(all(), |r| r.rep.timings.run.cpu_s));
    report.put("host.nproc", host::nproc() as f64);

    (report, tracer)
}

/// The end-to-end set: untraced repetitions only, in calibrated seconds.
///
/// The host changes pace over tens of seconds, for everything it runs — the
/// fixed calibration kernel included — by 15–40 %. Scaling each repetition's
/// times by how fast that kernel ran on either side of it, against its
/// undisturbed speed, takes most of that out of the reported medians; the
/// README has the measurements.
fn put_end_to_end(report: &mut Report, facts: &Facts, plain: &[Timed]) {
    let speed = |r: &Timed| (host::CALIB_REF_NS / r.calib_ns).clamp(0.5, 1.25);
    println!(
        "calibration: times x {:.4} at the median repetition (reference {} ns / host.calib_ns)",
        statx::median(&col(plain, speed)),
        host::CALIB_REF_NS
    );
    let wall = col(plain, |r| r.rep.timings.run.wall_s * speed(r));
    let pkts_per_s: Vec<f64> = wall
        .iter()
        .map(|w| facts.ledger.delivered as f64 / w)
        .collect();
    report.put_timed("wall_s", &wall);
    report.put_timed("sim_pkts_per_s", &pkts_per_s);
    report.put_timed("setup_s", &col(plain, |r| r.rep.timings.setup_s * speed(r)));
}

/// Simulated end-to-end outcomes (exact for a given `(workload, seed)`).
fn put_outcomes(r: &mut Report, w: &Workload, f: &Facts) {
    let data = f.counter(Counter::DataPktsRcvd);
    if w.is_udp() {
        // No flow completes under CBR UDP; what fails is a datagram.
        r.put(
            "fail_share",
            ratio(f.ledger.dropped_total(), f.ledger.injected),
        );
        r.put("sim_fct_mean_us", 0.0);
        r.put("sim_fct_p99_us", 0.0);
    } else {
        r.put(
            "fail_share",
            ratio(f.tcp_offered - f.tcp_completed, f.tcp_offered),
        );
        r.put("sim_fct_mean_us", f.fct_mean_us);
        r.put("sim_fct_p99_us", f.fct_p99_us.unwrap_or(0.0));
    }
    r.put(
        "sim_goodput_gbps",
        f.goodput_bytes as f64 * 8.0 / f.last_delivery.as_secs_f64() / 1e9,
    );
    r.put(
        "sim_reorder_share",
        ratio(f.counter(Counter::OooPktsRcvd), data),
    );
    r.put(
        "sim_retx_share",
        ratio(f.counter(Counter::Retransmits), data),
    );
}

/// Exact per-layer counts read from the finished run.
fn put_counts(r: &mut Report, w: &Workload, f: &Facts) {
    let c = |k| f.counter(k);
    r.put("netsim.event.events", f.events as f64);
    r.put(
        "netsim.event.events_per_pkt",
        ratio(f.events, f.ledger.delivered),
    );
    r.put("netsim.switch.pkt_hops", f.ports.pkt_hops as f64);
    r.put("netsim.queue.enqueued", f.ports.enqueued as f64);
    r.put("netsim.queue.drops", f.ports.drops as f64);
    r.put("netsim.queue.ecn_marks", f.ports.ecn_marks as f64);
    r.put("netsim.queue.max_bytes", f.ports.max_bytes as f64);
    r.put("netsim.slab.peak_pkts", f.slab_peak as f64);
    r.put("netsim.record.flows", f.flows_recorded as f64);
    r.put("transport.sender.acks", c(Counter::AcksRcvd) as f64);
    r.put(
        "transport.sender.dup_ack_share",
        ratio(c(Counter::DupAcks), c(Counter::AcksRcvd)),
    );
    r.put(
        "transport.sender.retransmits",
        c(Counter::Retransmits) as f64,
    );
    r.put(
        "transport.sender.spurious_share",
        ratio(c(Counter::SpuriousRetransmits), c(Counter::Retransmits)),
    );
    r.put("transport.sender.timeouts", c(Counter::Timeouts) as f64);
    // The recorder counts UDP datagrams as data packets too; the TCP
    // receiver never sees those.
    let tcp_data = if w.is_udp() {
        0
    } else {
        c(Counter::DataPktsRcvd)
    };
    r.put("transport.receiver.data_pkts", tcp_data as f64);
    r.put(
        "transport.receiver.ooo_share",
        ratio(c(Counter::OooPktsRcvd), c(Counter::DataPktsRcvd)),
    );
    r.put("transport.receiver.dup_bytes", c(Counter::DupBytes) as f64);
    r.put(
        "transport.receiver.ooo_bytes_max",
        c(Counter::OooBytesMax) as f64,
    );
    let reroutes = c(Counter::Reroutes) + c(Counter::TimeoutReroutes);
    r.put("core.bender.reroutes", reroutes as f64);
    r.put(
        "core.bender.reroutes_per_flow",
        ratio(reroutes, f.tcp_offered),
    );
}

/// Per-layer times from the spans of the traced repetitions.
fn put_spans(r: &mut Report, tracer: &Tracer, marks: &[(usize, usize)], traced: &[Timed]) {
    let per_rep = |name: &str| -> Vec<f64> {
        marks
            .iter()
            .map(|&(a, b)| trace::total_s(&tracer.spans()[a..b], name))
            .collect()
    };
    r.put_timed("workloads.generate_s", &per_rep("workloads.generate"));
    r.put_timed("topology.build_s", &per_rep("topology.build"));
    r.put_timed("transport.install_s", &per_rep("transport.install"));
    r.put_timed("netsim.collect_s", &per_rep("netsim.collect"));
    r.put_timed("stats.summarize_s", &per_rep("stats.summarize"));
    r.put_timed("stats.json_s", &per_rep("stats.json"));

    let ns_per_event = |busy: bool| -> Vec<f64> {
        traced
            .iter()
            .map(|rep| {
                let (ns, ev) = rep
                    .rep
                    .timings
                    .slices
                    .iter()
                    .filter(|s| s.busy == busy)
                    .fold((0u64, 0u64), |(n, e), s| (n + s.wall_ns, e + s.events));
                ratio(ns, ev)
            })
            .collect()
    };
    r.put_timed("netsim.run.busy_ns_per_event", &ns_per_event(true));
    r.put_timed("netsim.run.tail_ns_per_event", &ns_per_event(false));
}

/// Estimated shares of `wall_s`: count × unit cost ÷ wall. An outside
/// estimate from isolated calls — not a profile; see the README.
fn put_shares(r: &mut Report, w: &Workload, f: &Facts, costs: &UnitCosts, wall_s: f64) {
    let ns = |name: &str| costs.median(name);
    let c = |k| f.counter(k) as f64;
    let wall_ns = wall_s * 1e9;

    // Scheduler cost at this fabric's resident depth, interpolated on
    // log2(depth) between the two probed depths. A port holds at most one
    // pending TxDone and feeds one wire, so the port count is the scale of
    // the pending-event population.
    let depth = (f.ports.ports.max(1) as f64).log2();
    let t = ((depth - 10.0) / 6.0).clamp(0.0, 1.0);
    let (d1k, d64k) = (
        ns("netsim.event.push_pop_ns_d1k"),
        ns("netsim.event.push_pop_ns_d64k"),
    );
    let push_pop = d1k + (d64k - d1k) * t;
    let event = f.events as f64 * push_pop;
    let queue = f.ports.enqueued as f64 * ns("netsim.queue.enq_deq_ns");
    // The hop rig's per-packet time contains its own events and two queue
    // passes; what is left is the forwarding decision and port handling.
    let hop_self = (ns("netsim.switch.hop_ns")
        - costs.rig_events_per_pkt * ns("netsim.event.push_pop_ns_d1k")
        - 2.0 * ns("netsim.queue.enq_deq_ns"))
    .max(0.0);
    let switch = f.ports.pkt_hops as f64 * hop_self;

    let (sender, receiver, bender) = if w.is_udp() {
        (
            f.ledger.injected as f64 * ns("transport.udp.tick_ns"),
            0.0,
            0.0,
        )
    } else {
        let dup = c(Counter::DupAcks);
        let ooo = c(Counter::OooPktsRcvd);
        let sender = (c(Counter::AcksRcvd) - dup) * ns("transport.sender.on_ack_ns")
            + dup * ns("transport.sender.on_dupack_ns");
        let receiver = (c(Counter::DataPktsRcvd) - ooo)
            * ns("transport.receiver.on_data_inorder_ns")
            + ooo * ns("transport.receiver.on_data_ooo_ns");
        let bender = if w.scheme_spec().tcp_config().path.is_none() {
            0.0
        } else {
            c(Counter::AcksRcvd) * ns("core.bender.on_ack_ns")
        };
        // The sender probe runs with a static path; FlowBender's share is
        // on top of it.
        (sender, receiver, bender)
    };

    let parts = [
        ("share.netsim.event", event),
        ("share.netsim.switch", switch),
        ("share.netsim.queue", queue),
        ("share.transport.sender", sender),
        ("share.transport.receiver", receiver),
        ("share.core.bender", bender),
    ];
    let mut rest = 1.0;
    for (name, cost_ns) in parts {
        let share = cost_ns / wall_ns;
        rest -= share;
        r.put(name, share);
    }
    r.put("share.unattributed", rest);
}

fn put_shard(r: &mut Report, s: &ShardProbe) {
    r.put("experiments.shard.rounds", s.rounds as f64);
    r.put("experiments.shard.handoffs", s.handoffs as f64);
    r.put(
        "experiments.shard.events_per_round",
        ratio(s.events_s2, s.rounds),
    );
    r.put(
        "experiments.shard.event_inflation",
        ratio(s.events_s2, s.events_s1),
    );
    r.put(
        "experiments.shard.matches_s1",
        if s.matches_s1 { 1.0 } else { 0.0 },
    );
    r.put("experiments.shard.wall_ratio_s2", s.wall_s2 / s.wall_s1);
    r.put("experiments.shard.idle_share", s.idle_share);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn smoke(traced: bool) -> Config {
        Config {
            seed: 3,
            seconds: 0.0,
            traced,
            smoke: true,
        }
    }

    #[test]
    fn untraced_smoke_run_is_correct_and_carries_the_end_to_end_set() {
        let w = workload::find("udp-forward").unwrap();
        let (report, tracer) = measure(w, &smoke(false));
        assert!(report.correct, "{:?}", report.violations);
        assert_eq!((report.attempted, report.failed), (384, 0));
        assert!(tracer.spans().is_empty(), "untraced runs record no spans");
        report
            .final_line()
            .expect("every end-to-end metric measured");
        // The predictions that make udp-forward the bypass workload.
        let value = |name: &str| {
            let v = report.values.iter().find(|v| v.def.name == name);
            v.unwrap_or_else(|| panic!("{name} not reported")).value
        };
        assert_eq!(value("transport.sender.acks"), 0.0);
        assert_eq!(value("core.bender.reroutes"), 0.0);
        assert!(value("wall_s") > 0.0 && value("sim_pkts_per_s") > 0.0);
    }

    #[test]
    fn the_gate_names_every_broken_invariant() {
        let w = workload::find("udp-forward").unwrap();
        let good = run_rep(w, 3, true, &mut Tracer::new(w.name, false)).facts;
        let mut gate = Gate {
            offered: 384,
            reference: &good,
            violations: Vec::new(),
        };
        gate.check(&good, "rep");
        assert!(gate.violations.is_empty(), "{:?}", gate.violations);

        let mut bad = good.clone();
        bad.ledger.injected += 1;
        bad.events += 1;
        bad.digest ^= 1;
        bad.flows_recorded -= 1;
        gate.check(&bad, "rep 2");
        assert_eq!(gate.violations.len(), 4, "{:?}", gate.violations);
        assert!(gate.violations.iter().all(|v| v.starts_with("rep 2: ")));
    }
}
