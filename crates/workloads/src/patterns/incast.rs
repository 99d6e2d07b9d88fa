//! `incast:<fanin>` — the paper's §4.2.4 partition-aggregate jobs, with
//! the fan-in as a registry parameter so sweeps reach 1000:1.

use netsim::{DetRng, FlowSpec, SimTime};
use topology::FatTreeParams;

use crate::gen;
use crate::spec::Workload;

/// Each job's total payload: 1 MB split evenly across the workers, the
/// paper's Figure 5 configuration.
const JOB_BYTES: u64 = 1_000_000;

/// Partition-aggregate incast: Poisson job arrivals, each job `fan_in`
/// synchronized workers sending to one random aggregator.
pub struct Incast {
    fan_in: u32,
}

/// The `incast:<fanin>` workload (`incast` alone defaults to 32:1).
pub fn incast(fan_in: u32) -> Incast {
    assert!(fan_in >= 1, "incast fan-in must be >= 1");
    Incast { fan_in }
}

impl Workload for Incast {
    fn name(&self) -> String {
        format!("Incast({}:1)", self.fan_in)
    }

    fn brief(&self) -> String {
        format!(
            "partition-aggregate jobs, {} synchronized senders per aggregator (Fig. 5)",
            self.fan_in
        )
    }

    /// An aggregator and `fan_in` distinct workers.
    fn check_hosts(&self, n_hosts: usize) -> Result<(), String> {
        if (self.fan_in as usize) < n_hosts {
            return Ok(());
        }
        Err(format!(
            "incast fan-in {} needs more than {} hosts",
            self.fan_in, self.fan_in
        ))
    }

    fn generate(
        &self,
        p: &FatTreeParams,
        load: f64,
        duration: SimTime,
        rng: &mut DetRng,
    ) -> Vec<FlowSpec> {
        assert!(
            (self.fan_in as usize) < p.n_hosts(),
            "incast fan-in {} needs a topology with more than {} hosts",
            self.fan_in,
            p.n_hosts()
        );
        gen::partition_aggregate(p, load, self.fan_in, JOB_BYTES, duration, rng)
    }
}
