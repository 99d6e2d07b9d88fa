//! Experiment reports: titled tables plus notes, renderable to the
//! terminal and to CSV files under `results/`, plus machine-readable
//! per-run JSON summaries (`--json DIR`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use netsim::{Counter, Emit, FlowId, FlowTimeline, TraceConfig, TraceEvent};
use stats::{Json, Table};

use crate::scenario::RunOutput;

/// Flight-recorder selection from the CLI (`--trace flow=...` /
/// `--trace slowest=...`). Experiments that support tracing resolve this
/// to a [`TraceConfig`] per run; `Off` costs nothing anywhere.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSel {
    /// Recorder off (the default): no overhead, no timeline files.
    #[default]
    Off,
    /// Trace exactly these flow ids.
    Flows(Vec<FlowId>),
    /// Trace the `k` slowest TCP flows, resolved by an untraced probe run
    /// at the same seed (incomplete flows rank slowest).
    Slowest(usize),
}

impl TraceSel {
    /// Parse the `--trace` argument value: `flow=ID[,ID...]` or
    /// `slowest=K`.
    pub fn parse(s: &str) -> Result<TraceSel, String> {
        if let Some(list) = s.strip_prefix("flow=") {
            let mut flows = Vec::new();
            for part in list.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                match part.parse::<FlowId>() {
                    Ok(id) => flows.push(id),
                    Err(_) => return Err(format!("--trace flow list: `{part}` is not a flow id")),
                }
            }
            if flows.is_empty() {
                return Err("--trace flow= needs at least one flow id".into());
            }
            Ok(TraceSel::Flows(flows))
        } else if let Some(k) = s.strip_prefix("slowest=") {
            match k.trim().parse::<usize>() {
                Ok(0) => Err("--trace slowest= needs k >= 1".into()),
                Ok(k) => Ok(TraceSel::Slowest(k)),
                Err(_) => Err(format!("--trace slowest=: `{k}` is not a count")),
            }
        } else {
            Err(format!(
                "unknown --trace selection `{s}`; use flow=<id>[,<id>...] or slowest=<k>"
            ))
        }
    }

    /// Whether the recorder is off.
    pub fn is_off(&self) -> bool {
        *self == TraceSel::Off
    }

    /// Resolve to a [`TraceConfig`]. `slowest` supplies the ranking for
    /// [`TraceSel::Slowest`] — typically [`crate::scenario::slowest_flows`]
    /// over an untraced probe run — and is only invoked for that variant.
    pub fn config_with(&self, slowest: impl FnOnce(usize) -> Vec<FlowId>) -> TraceConfig {
        match self {
            TraceSel::Off => TraceConfig::off(),
            TraceSel::Flows(ids) => TraceConfig::flows(ids.clone()),
            TraceSel::Slowest(k) => TraceConfig::flows(slowest(*k)),
        }
    }
}

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Scales run durations / flow sizes. `1.0` is the committed default
    /// that finishes in minutes on a laptop; `10.0` approaches the paper's
    /// full scale (see EXPERIMENTS.md).
    pub scale: f64,
    /// Master seed; every random choice in a run derives from it.
    pub seed: u64,
    /// Scheme names selected on the command line (`--scheme a,b`). Empty
    /// means "each experiment's default set". Names are resolved through
    /// [`crate::schemes::find`], so `flowbender`, `Flowlet(100us)`, and
    /// `flowlet_100us` all work.
    pub schemes: Vec<String>,
    /// Workload slug selected on the command line (`--workload websearch`).
    /// `None` means "each experiment's own default generator". Names are
    /// resolved through [`workloads::find`], so `websearch`, `incast:64`,
    /// and `hotspot_z_1` all work.
    pub workload: Option<String>,
    /// Flight-recorder selection (`--trace`). Experiments that don't
    /// support tracing ignore it (the CLI warns).
    pub trace: TraceSel,
    /// Fat-tree arity override (`--topo k=K`) for experiments that build
    /// k-ary fabrics (hosts = k³/4, so k=16 → 1024 hosts). `None` means
    /// each experiment's own default.
    pub topo_k: Option<usize>,
    /// Shrink runs to CI-smoke size (`--smoke`): smaller fabric, shorter
    /// window, fewer sweep points. Experiments that have no smoke mode
    /// ignore it.
    pub smoke: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            seed: 1,
            schemes: Vec::new(),
            workload: None,
            trace: TraceSel::Off,
            topo_k: None,
            smoke: false,
        }
    }
}

impl Opts {
    /// Validate ranges, returning a human-readable error the CLI can
    /// surface instead of a panic.
    pub fn check(&self) -> Result<(), String> {
        if self.scale.is_nan() {
            return Err("--scale is NaN; pass a positive number like 1.0".into());
        }
        if !self.scale.is_finite() {
            return Err(format!("--scale {} is not finite", self.scale));
        }
        if self.scale <= 0.0 {
            return Err(format!("--scale {} must be positive", self.scale));
        }
        if self.scale > 100.0 {
            return Err(format!(
                "--scale {} is out of range; the supported range is (0, 100]",
                self.scale
            ));
        }
        for name in &self.schemes {
            if crate::schemes::find(name).is_none() {
                return Err(crate::schemes_help(name));
            }
        }
        if let Some(name) = &self.workload {
            if workloads::find(name).is_none() {
                return Err(crate::workloads_help(name));
            }
        }
        // `--topo k=K` must describe a buildable fat-tree. Whether the
        // workload fits the fabric depends on which experiment runs:
        // `registry::check_workload` judges that per registry row.
        if let Some(k) = self.topo_k {
            topology::FatTreeParams::k_ary(k)?;
        }
        Ok(())
    }

    /// The schemes this invocation should evaluate: the `--scheme`
    /// selection if one was given, otherwise `default`.
    ///
    /// # Panics
    /// On unknown names — [`Opts::check`] reports them gracefully first
    /// on every CLI path.
    pub fn scheme_selection(
        &self,
        default: &[crate::schemes::SchemeSpec],
    ) -> Vec<crate::schemes::SchemeSpec> {
        if self.schemes.is_empty() {
            return default.to_vec();
        }
        self.schemes
            .iter()
            .map(|n| crate::schemes::find(n).unwrap_or_else(|| panic!("unknown scheme `{n}`")))
            .collect()
    }

    /// The workload this invocation should generate traffic with: the
    /// `--workload` selection if one was given, otherwise `default` (an
    /// experiment's historical generator, e.g. `websearch` for the
    /// Figure 3/4 sweeps).
    ///
    /// # Panics
    /// On unknown names — [`Opts::check`] reports them gracefully first
    /// on every CLI path.
    pub fn workload_or(&self, default: &str) -> workloads::Workload {
        let slug = self.workload.as_deref().unwrap_or(default);
        workloads::find(slug).unwrap_or_else(|| panic!("unknown workload `{slug}`"))
    }

    /// Panicking form of [`Opts::check`], for library/test call sites.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid options: {e}");
        }
    }

    /// A duration scaled by `self.scale`.
    pub fn scaled(&self, base: netsim::SimTime) -> netsim::SimTime {
        netsim::SimTime::from_secs_f64(base.as_secs_f64() * self.scale)
    }
}

/// Everything the command line says after the experiment name.
#[derive(Debug)]
pub struct Cli {
    /// The experiment options (not yet [`Opts::check`]ed).
    pub opts: Opts,
    /// `--out DIR` (default `results`).
    pub out_dir: PathBuf,
    /// `--json DIR`.
    pub json_dir: Option<PathBuf>,
}

impl Cli {
    /// Parse the arguments that follow the command. `Err(None)` asks for
    /// the usage text (unknown option, missing or unparsable number);
    /// `Err(Some(msg))` is an `error: msg` / exit 2. Never panics, whatever
    /// the strings hold.
    pub fn parse(args: &[String]) -> Result<Cli, Option<String>> {
        let mut cli = Cli {
            opts: Opts::default(),
            out_dir: PathBuf::from("results"),
            json_dir: None,
        };
        let opts = &mut cli.opts;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = args.next().ok_or(None)?;
            match flag.as_str() {
                "--scale" => opts.scale = value.parse().map_err(|_| None)?,
                "--seed" => opts.seed = value.parse().map_err(|_| None)?,
                "--out" => cli.out_dir = PathBuf::from(value),
                "--json" => cli.json_dir = Some(PathBuf::from(value)),
                "--scheme" => opts
                    .schemes
                    .extend(value.split(',').map(|s| s.trim().to_string())),
                "--workload" => opts.workload = Some(value.trim().to_string()),
                "--trace" => opts.trace = TraceSel::parse(value)?,
                "--topo" => {
                    let k = value.strip_prefix("k=").and_then(|v| v.parse().ok());
                    opts.topo_k = Some(k.ok_or_else(|| {
                        format!(
                            "--topo {value}: expected k=<even K>, e.g. --topo k=16 \
                             for a 1024-host fat-tree"
                        )
                    })?);
                }
                _ => return Err(None),
            }
        }
        Ok(cli)
    }
}

/// The machine-readable summary of one simulation run: identifying
/// metadata, every counter, FCT percentiles over completed flows, the
/// collected telemetry series, and the event count.
///
/// Serialization is fully deterministic (insertion-ordered keys, exact
/// integers, shortest-round-trip floats): two runs with the same seed
/// produce byte-identical JSON. Deliberately excluded: anything
/// wall-clock-dependent (that goes in the separate `BENCH_run.json`).
#[derive(Debug)]
pub struct RunSummary {
    /// Distinguishes runs within one experiment (e.g. "flows8_seed3").
    pub label: String,
    /// Scheme display name.
    pub scheme: String,
    /// Scale factor the run was generated at.
    pub scale: f64,
    /// Master seed of the run.
    pub seed: u64,
    /// Every [`Counter`], as `(name, value)` in canonical order.
    pub counters: Vec<(String, u64)>,
    /// FCT statistics in seconds over completed flows, as
    /// `(name, value)`: completed/total counts and mean/p50/p90/p99/max.
    pub fct_percentiles: Vec<(String, f64)>,
    /// Telemetry series: `(name, points)` with times in seconds.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// Per-port drop-reason rows `((node, port), counts-by-reason)`,
    /// sorted by `(node, port)`. Empty for a loss-free run, in which
    /// case the JSON omits the `drops` section entirely (keeping
    /// summaries of fault-free runs byte-identical to earlier layouts).
    pub drops: Vec<(
        (netsim::NodeId, netsim::PortId),
        [u64; netsim::DropReason::COUNT],
    )>,
    /// Reconvergence SLO summary of a run with an armed probe
    /// ([`netsim::SloConfig`]); `None` — the JSON omits the section —
    /// for every run without one, keeping probe-free summaries
    /// byte-identical to earlier layouts.
    pub recon: Option<ReconSummary>,
    /// Events the simulator processed.
    pub events: u64,
}

/// The JSON-facing digest of a run's [`netsim::SloResults`]: how fast
/// flows that were in flight at the failure instant delivered their first
/// post-failure payload, plus the binned goodput curve the dip metrics
/// are computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconSummary {
    /// The failure instant the probe was armed with (s).
    pub fail_at_s: f64,
    /// Goodput bin width (s).
    pub bin_s: f64,
    /// Flows that reconverged (CI greps for a nonzero `"samples"`).
    pub samples: u64,
    /// Reconvergence-latency percentiles in seconds, as `(name, value)`;
    /// empty when no flow reconverged.
    pub latency_percentiles: Vec<(String, f64)>,
    /// Delivered payload bytes per goodput bin.
    pub goodput_bytes: Vec<u64>,
}

impl ReconSummary {
    /// Digest measured SLO results.
    pub fn from_slo(slo: &netsim::SloResults) -> Self {
        let lats: Vec<f64> = slo
            .reconvergence_latencies()
            .iter()
            .map(|t| t.as_secs_f64())
            .collect();
        let mut latency_percentiles = Vec::new();
        for (name, value) in [
            ("p50_s", stats::percentile(&lats, 0.5)),
            ("p99_s", stats::percentile(&lats, 0.99)),
            ("max_s", stats::percentile(&lats, 1.0)),
        ] {
            if let Some(v) = value {
                latency_percentiles.push((name.to_string(), v));
            }
        }
        ReconSummary {
            fail_at_s: slo.fail_at.as_secs_f64(),
            bin_s: slo.bin.as_secs_f64(),
            samples: slo.samples() as u64,
            latency_percentiles,
            goodput_bytes: slo.goodput_bins.clone(),
        }
    }
}

impl RunSummary {
    /// Summarize a finished run.
    pub fn from_run(
        label: impl Into<String>,
        scheme: &str,
        opts: &Opts,
        seed: u64,
        out: &RunOutput,
    ) -> Self {
        // `Emit::NonZero` counters are omitted while zero (same
        // None-when-empty contract as the `drops` section).
        let counters = Counter::all()
            .iter()
            .filter(|&&c| c.emit() == Emit::Always || out.get(c) != 0)
            .map(|&c| (c.name().to_string(), out.get(c)))
            .collect();
        let fcts: Vec<f64> = out
            .flows
            .iter()
            .filter_map(|f| f.fct())
            .map(|t| t.as_secs_f64())
            .collect();
        let mut fct_percentiles = vec![
            ("completed".to_string(), fcts.len() as f64),
            ("total".to_string(), out.flows.len() as f64),
        ];
        for (name, value) in [
            ("mean_s", stats::mean(&fcts)),
            ("p50_s", stats::percentile(&fcts, 0.5)),
            ("p90_s", stats::percentile(&fcts, 0.9)),
            ("p99_s", stats::percentile(&fcts, 0.99)),
            ("max_s", stats::percentile(&fcts, 1.0)),
        ] {
            if let Some(v) = value {
                fct_percentiles.push((name.to_string(), v));
            }
        }
        let series = out
            .series()
            .iter()
            .map(|s| {
                let pts = s
                    .points()
                    .iter()
                    .map(|&(t, v)| (t.as_secs_f64(), v))
                    .collect::<Vec<_>>();
                (s.name().to_string(), pts)
            })
            .collect();
        RunSummary {
            label: label.into(),
            scheme: scheme.to_string(),
            scale: opts.scale,
            seed,
            counters,
            fct_percentiles,
            series,
            drops: out.drops().per_port(),
            recon: out.slo().map(ReconSummary::from_slo),
            events: out.events,
        }
    }

    /// Build the JSON tree: `{meta, events, counters, fct_percentiles,
    /// series}`.
    pub fn to_json(&self, experiment: &str) -> Json {
        let mut meta = Json::obj();
        meta.set("experiment", Json::str(experiment));
        meta.set("label", Json::str(&self.label));
        meta.set("scheme", Json::str(&self.scheme));
        meta.set("scale", Json::Num(self.scale));
        meta.set("seed", Json::U64(self.seed));
        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters.set(name.clone(), Json::U64(*value));
        }
        let mut fct = Json::obj();
        for (name, value) in &self.fct_percentiles {
            fct.set(name.clone(), Json::Num(*value));
        }
        let mut series = Json::arr();
        for (name, points) in &self.series {
            let mut pts = Json::arr();
            for &(t, v) in points {
                let mut pair = Json::arr();
                pair.push(Json::Num(t));
                pair.push(Json::Num(v));
                pts.push(pair);
            }
            let mut s = Json::obj();
            s.set("name", Json::str(name.clone()));
            s.set("points", pts);
            series.push(s);
        }
        let mut root = Json::obj();
        root.set("meta", meta);
        root.set("events", Json::U64(self.events));
        root.set("counters", counters);
        if let Some(drops) = self.drops_json() {
            root.set("drops", drops);
        }
        root.set("fct_percentiles", fct);
        if let Some(recon) = &self.recon {
            let mut r = Json::obj();
            r.set("fail_at_s", Json::Num(recon.fail_at_s));
            r.set("bin_s", Json::Num(recon.bin_s));
            r.set("samples", Json::U64(recon.samples));
            for (name, value) in &recon.latency_percentiles {
                r.set(name.clone(), Json::Num(*value));
            }
            let mut bins = Json::arr();
            for &b in &recon.goodput_bytes {
                bins.push(Json::U64(b));
            }
            r.set("goodput_bytes", bins);
            root.set("reconvergence", r);
        }
        root.set("series", series);
        root
    }

    /// The `drops` section: run-wide totals per [`netsim::DropReason`]
    /// plus per-port rows. `None` when the run dropped nothing, so
    /// loss-free summaries keep their historical byte layout.
    fn drops_json(&self) -> Option<Json> {
        let reasons = netsim::DropReason::all();
        let mut totals = [0u64; netsim::DropReason::COUNT];
        for (_, counts) in &self.drops {
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        let total: u64 = totals.iter().sum();
        if total == 0 {
            return None;
        }
        let mut drops = Json::obj();
        drops.set("total", Json::U64(total));
        for (reason, t) in reasons.iter().zip(totals) {
            drops.set(reason.name(), Json::U64(t));
        }
        let mut ports = Json::arr();
        for &((node, port), counts) in &self.drops {
            let mut row = Json::obj();
            row.set("node", Json::U64(node as u64));
            row.set("port", Json::U64(port as u64));
            for (reason, c) in reasons.iter().zip(counts) {
                if c > 0 {
                    row.set(reason.name(), Json::U64(c));
                }
            }
            ports.push(row);
        }
        drops.set("ports", ports);
        Some(drops)
    }
}

/// A rendered experiment: named sections of tables plus free-form notes
/// and per-run machine-readable summaries.
#[derive(Debug)]
pub struct Report {
    /// Experiment id (e.g. "fig3").
    pub name: String,
    /// Titled tables, in print order.
    pub sections: Vec<(String, Table)>,
    /// Data-only sections: written as CSV by [`Report::write_files`] but
    /// not rendered to the terminal (e.g. full FCT CDFs for plotting).
    pub data_sections: Vec<(String, Table)>,
    /// Notes printed after the tables (expected shapes, caveats).
    pub notes: Vec<String>,
    /// Per-run summaries, written as JSON by [`Report::write_json`].
    pub runs: Vec<RunSummary>,
    /// Flight-recorder timelines attached by traced runs, as
    /// `(run label, timeline)` pairs. Rendered as a summary table by
    /// [`Report::render`] and written as one JSON file per flow by
    /// [`Report::write_json`] — never mixed into the run-summary JSON,
    /// whose byte layout is pinned.
    pub traces: Vec<(String, FlowTimeline)>,
}

impl Report {
    /// Create an empty report.
    pub fn new(name: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            sections: Vec::new(),
            data_sections: Vec::new(),
            notes: Vec::new(),
            runs: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Append a per-run summary.
    pub fn run_summary(&mut self, run: RunSummary) -> &mut Self {
        self.runs.push(run);
        self
    }

    /// Attach flight-recorder timelines from a traced run (label should
    /// match the corresponding [`RunSummary`]'s).
    pub fn trace_timelines(
        &mut self,
        label: impl Into<String>,
        timelines: Vec<FlowTimeline>,
    ) -> &mut Self {
        let label = label.into();
        for t in timelines {
            self.traces.push((label.clone(), t));
        }
        self
    }

    /// The human-readable flight-recorder summary (one row per traced
    /// flow), or `None` when no timelines are attached.
    pub fn trace_table(&self) -> Option<Table> {
        if self.traces.is_empty() {
            return None;
        }
        let mut t = Table::new(vec![
            "run",
            "flow",
            "events",
            "truncated",
            "first",
            "last",
            "hops",
            "enqueues",
            "marks",
            "drops",
            "decisions",
            "rtos",
        ]);
        for (label, tl) in &self.traces {
            let (first, last) = match (tl.events.first(), tl.events.last()) {
                (Some(&(f, _)), Some(&(l, _))) => (
                    stats::fmt_secs(f.as_secs_f64()),
                    stats::fmt_secs(l.as_secs_f64()),
                ),
                _ => ("-".to_string(), "-".to_string()),
            };
            t.row(vec![
                label.clone(),
                tl.flow.to_string(),
                tl.events.len().to_string(),
                tl.truncated.to_string(),
                first,
                last,
                tl.count_kind("hop").to_string(),
                tl.count_kind("enqueue").to_string(),
                tl.count_kind("ecn_mark").to_string(),
                tl.count_kind("drop").to_string(),
                tl.count_kind("decision").to_string(),
                tl.count_kind("rto_fire").to_string(),
            ]);
        }
        Some(t)
    }

    /// Append a titled table.
    pub fn section(&mut self, title: impl Into<String>, table: Table) -> &mut Self {
        self.sections.push((title.into(), table));
        self
    }

    /// Append a data-only section (CSV file, no terminal rendering).
    pub fn data_section(&mut self, slug: impl Into<String>, table: Table) -> &mut Self {
        self.data_sections.push((slug.into(), table));
        self
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Render the whole report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        for (title, table) in &self.sections {
            out.push('\n');
            out.push_str(title);
            out.push('\n');
            out.push_str(&table.render());
        }
        if let Some(t) = self.trace_table() {
            out.push('\n');
            out.push_str("Flight recorder (traced flows; full timelines in the JSON output)\n");
            out.push_str(&t.render());
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("note: {n}\n"));
            }
        }
        out
    }

    /// Write each section as `dir/<name>_<i>.csv` and the text rendering
    /// as `dir/<name>.txt`.
    pub fn write_files(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.txt", self.name)), self.render())?;
        for (i, (_, table)) in self.sections.iter().enumerate() {
            fs::write(dir.join(format!("{}_{}.csv", self.name, i)), table.to_csv())?;
        }
        for (slug, table) in &self.data_sections {
            fs::write(
                dir.join(format!("{}_{}.csv", self.name, slug)),
                table.to_csv(),
            )?;
        }
        if let Some(t) = self.trace_table() {
            fs::write(dir.join(format!("{}_trace.csv", self.name)), t.to_csv())?;
        }
        Ok(())
    }

    /// Write one `dir/<name>_<label>.json` per run summary, plus one
    /// `dir/<name>_<label>_trace_f<flow>.json` per attached timeline;
    /// returns the file names written. Timelines go in separate files so
    /// the run-summary JSON stays byte-identical whether or not the
    /// flight recorder ran.
    pub fn write_json(&self, dir: &Path) -> io::Result<Vec<String>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for run in &self.runs {
            let file = format!("{}_{}.json", self.name, run.label);
            fs::write(dir.join(&file), run.to_json(&self.name).to_string_pretty())?;
            written.push(file);
        }
        for (label, tl) in &self.traces {
            let file = format!("{}_{}_trace_f{}.json", self.name, label, tl.flow);
            let json = timeline_json(&self.name, label, tl);
            fs::write(dir.join(&file), json.to_string_pretty())?;
            written.push(file);
        }
        Ok(written)
    }
}

/// The deterministic JSON form of one traced flow's timeline:
/// `{meta: {experiment, label, flow}, truncated, events: [...]}` with one
/// insertion-ordered object per event (`t_ps`, `kind`, then the kind's
/// fields). Two runs at the same seed serialize byte-identically.
pub fn timeline_json(experiment: &str, label: &str, tl: &FlowTimeline) -> Json {
    let mut meta = Json::obj();
    meta.set("experiment", Json::str(experiment));
    meta.set("label", Json::str(label));
    meta.set("flow", Json::U64(tl.flow as u64));
    let mut events = Json::arr();
    for &(at, ev) in &tl.events {
        events.push(trace_event_json(at, &ev));
    }
    let mut root = Json::obj();
    root.set("meta", meta);
    root.set("truncated", Json::U64(tl.truncated));
    root.set("events", events);
    root
}

/// One timeline event as a JSON object. Key names are part of the stable
/// output format (CI greps for `"kind": "decision"`).
fn trace_event_json(at: netsim::SimTime, ev: &TraceEvent) -> Json {
    let mut o = Json::obj();
    o.set("t_ps", Json::U64(at.as_ps()));
    o.set("kind", Json::str(ev.kind()));
    match *ev {
        TraceEvent::Hop {
            node,
            in_port,
            out_port,
        } => {
            o.set("node", Json::U64(node as u64));
            o.set("in_port", Json::U64(in_port as u64));
            o.set("out_port", Json::U64(out_port as u64));
        }
        TraceEvent::Enqueue { node, port, qbytes } => {
            o.set("node", Json::U64(node as u64));
            o.set("port", Json::U64(port as u64));
            o.set("qbytes", Json::U64(qbytes));
        }
        TraceEvent::EcnMark { node, port } | TraceEvent::Dequeue { node, port } => {
            o.set("node", Json::U64(node as u64));
            o.set("port", Json::U64(port as u64));
        }
        TraceEvent::Drop { reason, node, port } => {
            o.set("reason", Json::str(reason.name()));
            o.set("node", Json::U64(node as u64));
            o.set("port", Json::U64(port as u64));
        }
        TraceEvent::CwndChange { cwnd_bytes } => {
            o.set("cwnd_bytes", Json::U64(cwnd_bytes));
        }
        TraceEvent::FastRetransmitEnter
        | TraceEvent::FastRetransmitExit
        | TraceEvent::Reconverge => {}
        TraceEvent::RtoFire { backoff_exp } => {
            o.set("backoff_exp", Json::U64(backoff_exp as u64));
        }
        TraceEvent::Decision { from_v, to_v } => {
            o.set("from_v", Json::U64(from_v as u64));
            o.set("to_v", Json::U64(to_v as u64));
        }
        TraceEvent::IntStamp { node, port, qbytes } | TraceEvent::CnEmit { node, port, qbytes } => {
            o.set("node", Json::U64(node as u64));
            o.set("port", Json::U64(port as u64));
            o.set("qbytes", Json::U64(qbytes));
        }
        TraceEvent::CnArrive { node, port } | TraceEvent::FlowcutReroute { node, port } => {
            o.set("node", Json::U64(node as u64));
            o.set("port", Json::U64(port as u64));
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_sections_and_notes() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1"]);
        let mut r = Report::new("demo");
        r.section("First", t).note("hello");
        let s = r.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("First"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn write_files_produces_txt_and_csv() {
        let dir = std::env::temp_dir().join(format!("fbreport_{}", std::process::id()));
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        let mut r = Report::new("demo");
        r.section("S", t);
        r.write_files(&dir).unwrap();
        assert!(dir.join("demo.txt").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("demo_0.csv")).unwrap(),
            "a,b\n1,2\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_summary_json_layout_is_stable() {
        let rs = RunSummary {
            label: "flows8_seed3".into(),
            scheme: "ECMP".into(),
            scale: 1.0,
            seed: 3,
            counters: vec![("reroutes".into(), 2)],
            fct_percentiles: vec![("mean_s".into(), 0.5)],
            series: vec![("vfield.f0".into(), vec![(0.0, 3.0)])],
            drops: vec![],
            recon: None,
            events: 10,
        };
        let j = rs.to_json("demo").to_string();
        assert_eq!(
            j,
            r#"{"meta":{"experiment":"demo","label":"flows8_seed3","scheme":"ECMP","scale":1,"seed":3},"events":10,"counters":{"reroutes":2},"fct_percentiles":{"mean_s":0.5},"series":[{"name":"vfield.f0","points":[[0,3]]}]}"#
        );
        let mut r = Report::new("demo");
        r.run_summary(rs);
        let dir = std::env::temp_dir().join(format!("fbjson_{}", std::process::id()));
        let files = r.write_json(&dir).unwrap();
        assert_eq!(files, ["demo_flows8_seed3.json"]);
        let text = std::fs::read_to_string(dir.join(&files[0])).unwrap();
        assert!(text.starts_with("{\n  \"meta\""));
        assert!(text.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drops_section_appears_only_when_packets_were_lost() {
        let mut rs = RunSummary {
            label: "l".into(),
            scheme: "ECMP".into(),
            scale: 1.0,
            seed: 1,
            counters: vec![],
            fct_percentiles: vec![],
            series: vec![],
            drops: vec![((4, 1), [0, 0, 0, 0])],
            recon: None,
            events: 0,
        };
        // All-zero rows count as loss-free: no section.
        assert!(!rs.to_json("demo").to_string().contains("drops"));
        rs.drops = vec![((4, 1), [2, 0, 7, 0]), ((9, 0), [0, 1, 0, 3])];
        let j = rs.to_json("demo").to_string();
        assert!(j.contains(
            r#""drops":{"total":13,"queue_full":2,"link_down":1,"gray_loss":7,"corruption":3,"#
        ));
        assert!(j.contains(r#"{"node":4,"port":1,"queue_full":2,"gray_loss":7}"#));
        assert!(j.contains(r#"{"node":9,"port":0,"link_down":1,"corruption":3}"#));
        // Reasons sum to the advertised total.
        assert_eq!(2 + 1 + 7 + 3, 13);
    }

    #[test]
    fn reconvergence_section_appears_only_with_an_armed_probe() {
        let mut rs = RunSummary {
            label: "l".into(),
            scheme: "ECMP".into(),
            scale: 1.0,
            seed: 1,
            counters: vec![],
            fct_percentiles: vec![],
            series: vec![],
            drops: vec![],
            recon: None,
            events: 0,
        };
        assert!(!rs.to_json("demo").to_string().contains("reconvergence"));
        rs.recon = Some(ReconSummary {
            fail_at_s: 0.005,
            bin_s: 0.0005,
            samples: 3,
            latency_percentiles: vec![("p50_s".into(), 0.0001), ("p99_s".into(), 0.011)],
            goodput_bytes: vec![1000, 0, 2000],
        });
        let j = rs.to_json("demo").to_string();
        assert!(
            j.contains(
                r#""reconvergence":{"fail_at_s":0.005,"bin_s":0.0005,"samples":3,"p50_s":0.0001,"p99_s":0.011,"goodput_bytes":[1000,0,2000]}"#
            ),
            "{j}"
        );
        // The section sits between fct_percentiles and series, so
        // probe-free layouts (pinned above) are unchanged.
        let fct = j.find("fct_percentiles").unwrap();
        let recon = j.find("reconvergence").unwrap();
        let series = j.find("series").unwrap();
        assert!(fct < recon && recon < series);
    }

    #[test]
    fn trace_sel_parses_flow_lists_and_slowest() {
        assert_eq!(TraceSel::parse("flow=3").unwrap(), TraceSel::Flows(vec![3]));
        assert_eq!(
            TraceSel::parse("flow=1,2, 5").unwrap(),
            TraceSel::Flows(vec![1, 2, 5])
        );
        assert_eq!(TraceSel::parse("slowest=2").unwrap(), TraceSel::Slowest(2));
        assert!(TraceSel::parse("slowest=0").is_err(), "zero is useless");
        assert!(TraceSel::parse("flow=").is_err(), "empty list");
        assert!(TraceSel::parse("flow=x").is_err(), "non-numeric id");
        assert!(TraceSel::parse("everything").is_err(), "unknown selector");
        assert!(TraceSel::default().is_off());
        // Resolution: Flows passes ids through; Slowest asks the ranker.
        let cfg = TraceSel::Flows(vec![4, 2]).config_with(|_| unreachable!());
        assert!(cfg.wants(2) && cfg.wants(4) && !cfg.wants(3));
        let cfg = TraceSel::Slowest(2).config_with(|k| (0..k as u32).collect());
        assert!(cfg.wants(0) && cfg.wants(1) && !cfg.wants(2));
        assert_eq!(
            TraceSel::Off.config_with(|_| unreachable!()),
            TraceConfig::off()
        );
    }

    #[test]
    fn write_json_emits_timeline_files_alongside_run_summaries() {
        use netsim::SimTime;
        let tl = FlowTimeline {
            flow: 7,
            truncated: 0,
            events: vec![
                (
                    SimTime::from_us(1),
                    TraceEvent::Enqueue {
                        node: 4,
                        port: 1,
                        qbytes: 3000,
                    },
                ),
                (
                    SimTime::from_us(2),
                    TraceEvent::Decision { from_v: 0, to_v: 1 },
                ),
                (SimTime::from_us(3), TraceEvent::RtoFire { backoff_exp: 2 }),
            ],
        };
        let mut r = Report::new("demo");
        r.trace_timelines("run1", vec![tl]);
        // The rendered report gains a flight-recorder table...
        let text = r.render();
        assert!(text.contains("Flight recorder"), "table rendered: {text}");
        assert!(text.contains("run1"), "labelled: {text}");
        // ...and the JSON output gains exactly one timeline file.
        let dir = std::env::temp_dir().join(format!("fbtrace_{}", std::process::id()));
        let files = r.write_json(&dir).unwrap();
        assert_eq!(files, ["demo_run1_trace_f7.json"]);
        let json = std::fs::read_to_string(dir.join(&files[0])).unwrap();
        assert!(json.contains(r#""kind": "decision""#), "{json}");
        assert!(json.contains(r#""from_v": 0"#) && json.contains(r#""to_v": 1"#));
        assert!(json.contains(r#""kind": "rto_fire""#) && json.contains(r#""backoff_exp": 2"#));
        assert!(json.contains(r#""qbytes": 3000"#));
        // Determinism: serializing the same timeline twice is byte-equal.
        let again = timeline_json("demo", "run1", &r.traces[0].1).to_string_pretty();
        assert_eq!(json, again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opts_check_rejects_bad_scales() {
        let ok = |s: f64| {
            Opts {
                scale: s,
                seed: 1,
                ..Opts::default()
            }
            .check()
        };
        assert!(ok(1.0).is_ok());
        assert!(ok(100.0).is_ok());
        assert!(ok(0.01).is_ok());
        assert!(ok(f64::NAN).unwrap_err().contains("NaN"));
        assert!(ok(f64::INFINITY).unwrap_err().contains("not finite"));
        assert!(ok(0.0).unwrap_err().contains("positive"));
        assert!(ok(-2.0).unwrap_err().contains("positive"));
        assert!(ok(101.0).unwrap_err().contains("out of range"));
    }

    #[test]
    fn opts_workload_selection_and_validation() {
        let mut o = Opts::default();
        assert!(o.check().is_ok(), "no workload is the default");
        assert_eq!(
            o.workload_or("websearch").name(),
            "Websearch",
            "falls back to the experiment's default"
        );
        o.workload = Some("incast:64".into());
        assert!(o.check().is_ok(), "parameterized slugs validate");
        assert_eq!(o.workload_or("websearch").name(), "Incast(64:1)");
        o.workload = Some("nosuch".into());
        let err = o.check().unwrap_err();
        assert!(err.contains("nosuch"), "names the offender: {err}");
        assert!(err.contains("websearch"), "lists the registry: {err}");
    }

    #[test]
    fn opts_scaling() {
        let o = Opts {
            scale: 0.5,
            seed: 1,
            ..Opts::default()
        };
        o.validate();
        assert_eq!(
            o.scaled(netsim::SimTime::from_ms(100)),
            netsim::SimTime::from_ms(50)
        );
    }
}
