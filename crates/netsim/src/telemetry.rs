//! Named time-series probes collected alongside counters and flow records.
//!
//! There are two probe families, hooked where the paper's mechanism lives:
//! the occupancy of a switch egress queue after each enqueue
//! (`queue_depth.n{node}.p{port}`, sampled) and the V-field of a
//! path-controlled flow at its start and after every reroute
//! (`vfield.f{flow}`, a trace: every point is a routing decision, so none
//! is rate-limited). Each hook forwards to [`Telemetry::record`], which is
//! a single branch when telemetry is off — the default — so the hot path
//! stays unmeasurably close to a probe-free build. A [`TelemetryConfig`]
//! holds one value, the sampling period: setting it collects both
//! families, with queue-depth series limited to one point per period.
//!
//! Series live inside the run's `Recorder` and come out through
//! `RunResults` for the `stats`/`experiments` crates to serialize.

use crate::hashing::DetHashMap;

use crate::packet::{FlowId, NodeId, PortId};
use crate::time::SimTime;

/// Whether a run collects telemetry, and how densely. The default is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Minimum spacing between two recorded points of one queue-depth
    /// series; `None` collects nothing.
    pub sample_every: Option<SimTime>,
}

impl TelemetryConfig {
    /// No collection (the default).
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// Collect both families, queue depths at most once per `period`.
    pub fn every(period: SimTime) -> Self {
        TelemetryConfig {
            sample_every: Some(period),
        }
    }
}

/// The identity of one time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeriesKey {
    /// Occupancy of the egress queue at `(node, port)`.
    QueueDepth {
        /// Owning node.
        node: NodeId,
        /// Egress port index on that node.
        port: PortId,
    },
    /// V-field of `flow`: initial value plus one point per reroute.
    Vfield {
        /// Flow id.
        flow: FlowId,
    },
}

impl SeriesKey {
    /// Stable dotted name, used in reports and JSON output
    /// (e.g. `queue_depth.n3.p2`, `vfield.f17`).
    pub fn name(&self) -> String {
        match self {
            SeriesKey::QueueDepth { node, port } => format!("queue_depth.n{node}.p{port}"),
            SeriesKey::Vfield { flow } => format!("vfield.f{flow}"),
        }
    }
}

/// One named time series of `(time, value)` points, in recording order.
#[derive(Debug, Clone)]
pub struct Series {
    key: SeriesKey,
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// The series' key.
    pub fn key(&self) -> SeriesKey {
        self.key
    }

    /// The series' stable dotted name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The recorded points, oldest first.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

/// All time series collected during one run. Owned by the `Recorder`.
#[derive(Debug, Default)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    index: DetHashMap<SeriesKey, usize>,
    series: Vec<Series>,
}

impl Telemetry {
    /// Create an empty, disabled store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the configuration. Call before the run starts; existing
    /// series are kept.
    pub fn set_config(&mut self, cfg: TelemetryConfig) {
        self.cfg = cfg;
    }

    /// Record `value` for `key` at `now`. A no-op (one branch) when
    /// telemetry is off; queue-depth points closer than
    /// [`TelemetryConfig::sample_every`] to the series' last are dropped.
    #[inline]
    pub fn record(&mut self, now: SimTime, key: SeriesKey, value: f64) {
        let Some(every) = self.cfg.sample_every else {
            return;
        };
        self.record_slow(now, key, value, every);
    }

    /// The enabled-path tail of [`Telemetry::record`], kept out of line so
    /// the disabled path inlines to a single test.
    fn record_slow(&mut self, now: SimTime, key: SeriesKey, value: f64, every: SimTime) {
        let idx = match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.index.insert(key, i);
                self.series.push(Series {
                    key,
                    name: key.name(),
                    points: Vec::new(),
                });
                i
            }
        };
        let s = &mut self.series[idx];
        if let (SeriesKey::QueueDepth { .. }, Some(&(last, _))) = (key, s.points.last()) {
            if now < last + every {
                return;
            }
        }
        s.points.push((now, value));
    }

    /// All series, in order of first recording.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Consume the store, returning the series in order of first recording.
    pub fn into_series(self) -> Vec<Series> {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Telemetry::new();
        t.record(SimTime::ZERO, SeriesKey::Vfield { flow: 1 }, 1.0);
        t.record(
            SimTime::ZERO,
            SeriesKey::QueueDepth { node: 0, port: 0 },
            1.0,
        );
        assert!(t.series().is_empty());
    }

    #[test]
    fn sampling_rate_limits_but_traces_do_not() {
        let mut t = Telemetry::new();
        t.set_config(TelemetryConfig::every(SimTime::from_us(10)));
        let q = SeriesKey::QueueDepth { node: 1, port: 2 };
        let v = SeriesKey::Vfield { flow: 3 };
        for us in 0..100 {
            t.record(SimTime::from_us(us), q, us as f64);
            t.record(SimTime::from_us(us), v, us as f64);
        }
        let qs = t.series().iter().find(|s| s.key() == q).unwrap();
        let vs = t.series().iter().find(|s| s.key() == v).unwrap();
        assert_eq!(qs.points().len(), 10, "sampled at 10 us over 100 us");
        assert_eq!(vs.points().len(), 100, "traces keep every event");
    }

    #[test]
    fn series_order_is_first_recording_order() {
        let mut t = Telemetry::new();
        t.set_config(TelemetryConfig::every(SimTime::ZERO));
        t.record(SimTime::ZERO, SeriesKey::Vfield { flow: 9 }, 1.0);
        t.record(
            SimTime::ZERO,
            SeriesKey::QueueDepth { node: 0, port: 1 },
            2.0,
        );
        t.record(SimTime::from_us(1), SeriesKey::Vfield { flow: 9 }, 3.0);
        let names: Vec<_> = t.series().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["vfield.f9", "queue_depth.n0.p1"]);
        assert_eq!(t.series()[0].points().len(), 2);
    }

    #[test]
    fn key_names_are_stable() {
        assert_eq!(
            SeriesKey::QueueDepth { node: 3, port: 2 }.name(),
            "queue_depth.n3.p2"
        );
        assert_eq!(SeriesKey::Vfield { flow: 0 }.name(), "vfield.f0");
    }
}
