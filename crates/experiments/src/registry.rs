//! The experiment registry: every paper artifact as one row of a table —
//! name, description, how to run it, and (when it honors `--workload`) the
//! fabric it builds.
//!
//! The CLI's usage text, dispatch, `all`, and `--workload` validation all
//! read [`registry`], so adding an experiment is one row here plus its
//! module. Rows appear in the paper's presentation order.

use topology::FatTreeParams;

use crate::cell::paper_fabric;
use crate::report::{Opts, Report};
use crate::{
    ablation, alltoall, asym, buffers, chaos, fabric_scale, fig5, fig8, flowlet, gray_failure,
    hotspot, link_failure, reordering, repflow, sensitivity, table1, topo_dep,
};

/// One runnable experiment from the paper (or an extension). All run
/// parameters come in through [`Opts`].
pub struct Experiment {
    /// Subcommand name (e.g. `"fig3"`, `"link-failure"`). The report it
    /// produces carries the same name with `-` spelled `_`.
    pub name: &'static str,
    /// One-line description shown in the usage text.
    pub describe: &'static str,
    /// Run it. The result holds the report named after this row; rows
    /// that share one sweep (fig3/fig4/ooo) name the same function, which
    /// returns all of the sweep's reports — see [`run`].
    pub run: fn(&Opts) -> Vec<Report>,
    /// The fat-tree this experiment builds, for the rows that honor
    /// `--workload` (`None`: the experiment generates its own traffic). It
    /// is the function the module itself builds its fabric with, so the
    /// CLI's check that the workload fits ([`check_workload`]) cannot
    /// drift from what actually runs.
    pub fabric: Option<fn(&Opts) -> FatTreeParams>,
}

static REGISTRY: [Experiment; 20] = [
    Experiment {
        name: "table1",
        describe: "Table 1: 250MB ToR-to-ToR microbenchmark",
        run: |o| vec![table1::run(o)],
        fabric: None,
    },
    Experiment {
        name: "fig3",
        describe: "Fig 3: all-to-all mean latency (runs the fig3/4/ooo sweep)",
        run: alltoall::run_all,
        fabric: Some(paper_fabric),
    },
    Experiment {
        name: "fig4",
        describe: "Fig 4: all-to-all p99 latency (same sweep)",
        run: alltoall::run_all,
        fabric: Some(paper_fabric),
    },
    Experiment {
        name: "ooo",
        describe: "S4.2.3: out-of-order statistics (same sweep)",
        run: alltoall::run_all,
        fabric: Some(paper_fabric),
    },
    Experiment {
        name: "fig5",
        describe: "Fig 5: partition-aggregate",
        run: |o| vec![fig5::run(o)],
        fabric: None,
    },
    Experiment {
        name: "fig6",
        describe: "Fig 6: sensitivity to N",
        run: |o| vec![sensitivity::fig6(o)],
        fabric: None,
    },
    Experiment {
        name: "fig7",
        describe: "Fig 7: sensitivity to T",
        run: |o| vec![sensitivity::fig7(o)],
        fabric: None,
    },
    Experiment {
        name: "fig8",
        describe: "Fig 8: testbed (simulated)",
        run: |o| vec![fig8::run(o)],
        fabric: None,
    },
    Experiment {
        name: "hotspot",
        describe: "S4.3.1: UDP hotspot decongestion",
        run: |o| vec![hotspot::run(o)],
        fabric: None,
    },
    Experiment {
        name: "topo-dep",
        describe: "S4.3.3: path-diversity dependence",
        run: |o| vec![topo_dep::run(o)],
        fabric: None,
    },
    Experiment {
        name: "link-failure",
        describe: "S3.3.2: RTO-scale failure recovery",
        run: |o| vec![link_failure::run(o)],
        fabric: None,
    },
    Experiment {
        name: "gray-failure",
        describe: "extension: gray failure — silent loss on one agg-core uplink",
        run: |o| vec![gray_failure::run(o)],
        fabric: None,
    },
    Experiment {
        name: "asym",
        describe: "S4.3.1: asymmetric links, WCMP, weight misconfiguration",
        run: |o| vec![asym::run(o)],
        fabric: None,
    },
    Experiment {
        name: "buffers",
        describe: "substrate sensitivity: buffer depth vs the ECMP gap",
        run: |o| vec![buffers::run(o)],
        fabric: None,
    },
    Experiment {
        name: "flowlet",
        describe: "extension: FlowBender vs flowlet switching",
        run: |o| vec![flowlet::run(o)],
        fabric: None,
    },
    Experiment {
        name: "ablation",
        describe: "S3.4/S5 design refinements",
        run: |o| vec![ablation::run(o)],
        fabric: None,
    },
    Experiment {
        name: "repflow",
        describe: "extension: RepFlow-style short-flow replication vs rerouting",
        run: |o| vec![repflow::run(o)],
        fabric: None,
    },
    Experiment {
        name: "fabric-scale",
        describe: "extension: 1024-host all-to-all on a k=16 fat-tree",
        run: |o| vec![fabric_scale::run(o)],
        fabric: None,
    },
    Experiment {
        name: "chaos",
        describe: "extension: incident-timeline chaos drill with reconvergence SLOs",
        run: |o| vec![chaos::run(o)],
        fabric: None,
    },
    Experiment {
        name: "reordering",
        describe: "extension: reordering cost by routing locus — spraying vs switch-side flowcuts",
        run: |o| vec![reordering::run(o)],
        fabric: Some(reordering::fabric),
    },
];

/// All experiments, in the paper's presentation order.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Look up an experiment by its subcommand name. Underscores are
/// accepted as hyphens (`gray_failure` finds `gray-failure`), since the
/// report files on disk use the underscored spelling.
pub fn find(name: &str) -> Option<&'static Experiment> {
    let canon = name.replace('_', "-");
    registry().iter().find(|e| e.name == canon)
}

/// Run `rows` in order and return one report per row. What a row's `run`
/// returns is pooled by report name, and a row whose report is already in
/// the pool does not run again — so the sweep fig3/fig4/ooo share runs
/// once per call, whether one of them was asked for or all 20 rows.
pub fn run(rows: &[&Experiment], opts: &Opts) -> Vec<Report> {
    let mut pool: Vec<Report> = Vec::new();
    let mut reports = Vec::with_capacity(rows.len());
    for e in rows {
        let name = e.name.replace('-', "_");
        let pooled = |pool: &[Report]| pool.iter().position(|r| r.name == name);
        if pooled(&pool).is_none() {
            pool.extend((e.run)(opts));
        }
        let i = pooled(&pool).expect("a row's run returns the report named after it");
        reports.push(pool.remove(i));
    }
    reports
}

/// Check that the `--workload` selection fits the fabric every one of
/// `rows` that honors it actually builds: `Err` naming the experiment and
/// its host count when the workload needs more hosts than that. Call after
/// [`Opts::check`], which vets `--topo` and the workload's name.
pub fn check_workload(rows: &[&Experiment], opts: &Opts) -> Result<(), String> {
    let Some(name) = &opts.workload else {
        return Ok(());
    };
    let wl = workloads::find(name).ok_or_else(|| crate::workloads_help(name))?;
    for e in rows {
        if let Some(fabric) = e.fabric {
            let hosts = fabric(opts).n_hosts();
            wl.check_hosts(hosts).map_err(|err| {
                let smoke = if opts.smoke { " --smoke" } else { "" };
                let topo = opts
                    .topo_k
                    .map_or(String::new(), |k| format!(" --topo k={k}"));
                format!(
                    "--workload {name}: {err}; `{}{smoke}{topo}` builds {hosts}",
                    e.name
                )
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_works() {
        let mut seen = std::collections::HashSet::new();
        for e in registry() {
            assert!(seen.insert(e.name), "duplicate experiment name {}", e.name);
            assert!(!e.describe.is_empty());
            let found = find(e.name).expect("registered name must resolve");
            assert_eq!(found.name, e.name);
        }
        assert_eq!(registry().len(), 20);
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn find_accepts_underscored_spellings() {
        assert_eq!(find("gray_failure").unwrap().name, "gray-failure");
        assert_eq!(find("link_failure").unwrap().name, "link-failure");
        assert_eq!(find("topo_dep").unwrap().name, "topo-dep");
    }

    /// The fig4 row names the shared fig3/fig4/ooo sweep; running it must
    /// hand back exactly the report named "fig4" — and asking for all
    /// three must still run the sweep once (each report appears once).
    #[test]
    fn a_shared_sweep_row_yields_exactly_its_own_report() {
        let opts = Opts {
            scale: 0.01,
            schemes: vec!["ecmp".into()],
            ..Opts::default()
        };
        let fig4 = run(&[find("fig4").unwrap()], &opts);
        assert_eq!(fig4.len(), 1);
        assert_eq!(fig4[0].name, "fig4");
        assert_eq!(fig4[0].sections[0].1.len(), 12, "3 loads x 4 size bins");

        let rows: Vec<&Experiment> = ["ooo", "fig3", "fig4"].map(|n| find(n).unwrap()).into();
        let names: Vec<String> = run(&rows, &opts).into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["ooo", "fig3", "fig4"]);
    }

    /// `--workload` is judged against the fabric the experiment builds:
    /// 32:1 incast fits the 128-host paper fabric and reordering's k=8, not
    /// the 16-host smoke fabric — and rows that ignore `--workload` have
    /// nothing to check.
    #[test]
    fn workloads_are_checked_against_each_rows_own_fabric() {
        let opts = |workload: &str, smoke| Opts {
            workload: Some(workload.into()),
            smoke,
            ..Opts::default()
        };
        let check = |name: &str, o: &Opts| check_workload(&[find(name).unwrap()], o);
        for name in ["fig3", "reordering", "chaos"] {
            assert!(check(name, &opts("incast_32_1", false)).is_ok(), "{name}");
            assert!(check(name, &opts("websearch", true)).is_ok(), "{name}");
        }
        let err = check("reordering", &opts("incast_32_1", true)).unwrap_err();
        assert!(
            err.contains("more than 32 hosts") && err.contains("`reordering --smoke` builds 16"),
            "{err}"
        );
        assert!(
            check("reordering", &opts("incast:15", true)).is_ok(),
            "15 senders fit 16 hosts"
        );
        assert!(check("fig3", &opts("incast:128", false)).is_err());
        assert!(
            check("chaos", &opts("incast:128", true)).is_ok(),
            "ignores --workload"
        );
        let all: Vec<&Experiment> = registry().iter().collect();
        assert!(
            check_workload(&all, &opts("incast:128", false)).is_err(),
            "`all` checks every row"
        );
        assert!(check_workload(&all, &Opts::default()).is_ok());
    }
}
