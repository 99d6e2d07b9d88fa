//! Randomized invariant tests of the FlowBender state machine. Each test
//! sweeps many seeded configurations drawn from [`SplitMix64`], so every
//! failure reproduces exactly (the seed is part of the assertion message).

use flowbender::{Config, Decision, FlowBender, Rng, SplitMix64};

/// A random-but-valid configuration drawn from `rng`.
fn random_config(rng: &mut SplitMix64) -> Config {
    Config {
        t: rng.gen_range(501) as f64 / 1000.0, // 0.0..=0.5
        n: 1 + rng.gen_range(5),
        v_range: (1 + rng.gen_range(16)) as u8,
        randomize_n: rng.gen_range(2) == 1,
        ewma_gamma: if rng.gen_range(2) == 1 {
            Some((1 + rng.gen_range(100)) as f64 / 100.0) // 0.01..=1.0
        } else {
            None
        },
        cooldown_rtts: rng.gen_range(5),
        reroute_on_timeout: rng.gen_range(2) == 1,
    }
}

/// A scripted epoch: `marked` of `total` ACKs carry the echo.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    marked: u32,
    total: u32,
}

fn random_epoch(rng: &mut SplitMix64) -> Epoch {
    let total = rng.gen_range(65);
    let marked = if total == 0 {
        0
    } else {
        rng.gen_range(total + 1)
    };
    Epoch { marked, total }
}

fn feed(fb: &mut FlowBender, e: Epoch, rng: &mut SplitMix64) -> Decision {
    for i in 0..e.total {
        fb.on_ack(i < e.marked);
    }
    fb.on_rtt_end(rng)
}

/// V always stays within the configured range, no matter the feed.
#[test]
fn v_always_in_range() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed);
        let cfg = random_config(&mut rng);
        let mut fb = FlowBender::new(cfg, &mut rng);
        assert!(fb.vfield() < cfg.v_range, "seed {seed}");
        for _ in 0..64 {
            let e = random_epoch(&mut rng);
            let d = feed(&mut fb, e, &mut rng);
            assert!(fb.vfield() < cfg.v_range, "seed {seed}: {cfg:?}");
            if let Decision::Reroute { from, to } = d {
                assert!(from < cfg.v_range && to < cfg.v_range, "seed {seed}");
                assert_eq!(to, fb.vfield(), "seed {seed}");
                if cfg.v_range > 1 {
                    assert_ne!(from, to, "seed {seed}: reroute must actually move");
                }
            }
        }
    }
}

/// With marking at or below T, FlowBender never reroutes for congestion.
#[test]
fn clean_traffic_never_reroutes() {
    for seed in 0..100u64 {
        let mut rng = SplitMix64::new(seed);
        let cfg = Config::default(); // T = 5%
        let mut fb = FlowBender::new(cfg, &mut rng);
        for _ in 0..100 {
            // marked/total <= 5% guaranteed: mark at most total/20 ACKs.
            let total = 1 + rng.gen_range(100);
            let marked = total / 20;
            let d = feed(&mut fb, Epoch { marked, total }, &mut rng);
            assert_eq!(d, Decision::Stay, "seed {seed}");
        }
    }
}

/// Fully marked traffic reroutes within every window of N consecutive
/// epochs (basic config: no cooldown, no EWMA, fixed N).
#[test]
fn saturated_traffic_reroutes_every_n() {
    for seed in 0..50u64 {
        for n in 1..=5u32 {
            let mut rng = SplitMix64::new(seed);
            let cfg = Config::default().with_n(n);
            let mut fb = FlowBender::new(cfg, &mut rng);
            let mut since_reroute = 0u32;
            let mut reroutes = 0u32;
            for _ in 0..50 {
                let d = feed(
                    &mut fb,
                    Epoch {
                        marked: 10,
                        total: 10,
                    },
                    &mut rng,
                );
                since_reroute += 1;
                if d.rerouted() {
                    assert_eq!(since_reroute, n, "seed {seed}: cadence must be exactly N");
                    since_reroute = 0;
                    reroutes += 1;
                }
            }
            assert_eq!(reroutes, 50 / n, "seed {seed}");
        }
    }
}

/// A timeout reroutes exactly when configured to, from any state.
#[test]
fn timeout_behaviour_matches_config() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed);
        let cfg = random_config(&mut rng);
        let mut fb = FlowBender::new(cfg, &mut rng);
        for _ in 0..20 {
            let e = random_epoch(&mut rng);
            feed(&mut fb, e, &mut rng);
        }
        // Leave a fully marked epoch in progress.
        for _ in 0..8 {
            fb.on_ack(true);
        }
        let v = fb.vfield();
        let d = fb.on_timeout(&mut rng);
        assert_eq!(d.rerouted(), cfg.reroute_on_timeout, "seed {seed}: {cfg:?}");
        if !d.rerouted() {
            assert_eq!(fb.vfield(), v, "seed {seed}: no reroute, no move");
        }
        // The in-progress epoch is always discarded: closing it now is an
        // empty epoch, which decides nothing.
        assert_eq!(fb.on_rtt_end(&mut rng), Decision::Stay, "seed {seed}");
    }
}

/// With a cooldown of C, two congestion reroutes are always separated
/// by more than C epochs.
#[test]
fn cooldown_spaces_reroutes() {
    for seed in 0..50u64 {
        for c in 1..=5u32 {
            let mut rng = SplitMix64::new(seed);
            let cfg = Config::default().with_cooldown(c);
            let mut fb = FlowBender::new(cfg, &mut rng);
            let mut last_reroute: Option<u32> = None;
            for epoch in 0..100u32 {
                let d = feed(
                    &mut fb,
                    Epoch {
                        marked: 10,
                        total: 10,
                    },
                    &mut rng,
                );
                if d.rerouted() {
                    if let Some(prev) = last_reroute {
                        assert!(
                            epoch - prev > c,
                            "seed {seed}: reroutes at {prev} and {epoch} violate cooldown {c}"
                        );
                    }
                    last_reroute = Some(epoch);
                }
            }
            assert!(
                last_reroute.is_some(),
                "seed {seed}: saturated feed must reroute"
            );
        }
    }
}

/// Determinism: the same seed and feed produce the same trajectory.
#[test]
fn same_seed_same_trajectory() {
    for seed in 0..100u64 {
        let run = || {
            let mut rng = SplitMix64::new(seed);
            let cfg = random_config(&mut rng);
            let mut fb = FlowBender::new(cfg, &mut rng);
            let mut vs = vec![fb.vfield()];
            let mut decisions = Vec::new();
            for _ in 0..50 {
                let e = random_epoch(&mut rng);
                decisions.push(feed(&mut fb, e, &mut rng));
                vs.push(fb.vfield());
            }
            (vs, decisions)
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}
