//! What a front end writes from one run's registry — the JSON run report,
//! the Perfetto trace, the live NDJSON stream and straggler table — so the
//! CLIs share one copy of the ordering that keeps stream and report in
//! agreement: monitor up before the run, monitor down before the report.

use crate::{to_perfetto_json, LiveMonitor, LiveMonitorConfig, Obs, DEFAULT_TRACE_CAPACITY};
use std::io;
use std::sync::Arc;

/// The observation outputs a caller asked for (file paths; parent
/// directories are created on demand).
#[derive(Clone, Debug, Default)]
pub struct ObsOutputs {
    /// Write the schema-versioned JSON `RunReport` here.
    pub report: Option<String>,
    /// Record per-PE event rings and write them here as Perfetto JSON.
    pub trace: Option<String>,
    /// Stream live per-PE snapshots here as NDJSON while the run is in
    /// flight.
    pub telemetry: Option<String>,
    /// Render the live straggler table to stderr.
    pub monitor: bool,
}

/// An open observation: the registry to hand the run, plus the live
/// monitor when one was asked for. Close with [`ObsSession::finish`] once
/// the PEs have joined.
pub struct ObsSession {
    /// The registry the run records into.
    pub obs: Arc<Obs>,
    monitor: Option<LiveMonitor>,
    outputs: ObsOutputs,
}

fn create(path: &str) -> io::Result<std::fs::File> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{path}: {e}"));
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(with_path)?;
        }
    }
    std::fs::File::create(path).map_err(with_path)
}

impl ObsOutputs {
    /// True iff any output needs a recorder.
    pub fn any(&self) -> bool {
        self.report.is_some() || self.trace.is_some() || self.live()
    }

    fn live(&self) -> bool {
        self.telemetry.is_some() || self.monitor
    }

    /// Builds the registry for `p` PEs (event rings only when a trace was
    /// asked for) and, for live outputs, starts the monitor — its `meta`
    /// line names `backend`.
    pub fn open(self, p: usize, backend: &'static str) -> io::Result<ObsSession> {
        let obs = match self.trace {
            Some(_) => Obs::with_trace(p, DEFAULT_TRACE_CAPACITY),
            None => Obs::new(p),
        };
        let monitor = if self.live() {
            obs.set_backend(backend);
            obs.enable_live();
            let out: Box<dyn io::Write + Send> = match &self.telemetry {
                Some(path) => Box::new(create(path)?),
                None => Box::new(io::sink()),
            };
            let cfg = LiveMonitorConfig {
                render: self.monitor,
                ..Default::default()
            };
            Some(LiveMonitor::spawn(Arc::clone(&obs), cfg, out)?)
        } else {
            None
        };
        Ok(ObsSession {
            obs,
            monitor,
            outputs: self,
        })
    }
}

impl ObsSession {
    /// Stops the monitor (final slot sweep + `summary` line) *before*
    /// assembling the report, so streamed aggregates and report counters
    /// agree and every alert is in both; then writes the trace and the
    /// report. Each file written is named on stderr.
    pub fn finish(self) -> io::Result<()> {
        use io::Write;
        if let Some(monitor) = self.monitor {
            match (monitor.finish(), &self.outputs.telemetry) {
                (Ok(stats), Some(path)) => eprintln!(
                    "wrote telemetry {path}: {} snapshot(s), {} alert(s)",
                    stats.snapshots, stats.alerts
                ),
                (Ok(_), None) => {}
                (Err(e), _) => eprintln!("warning: telemetry stream failed: {e}"),
            }
        }
        if let Some(path) = &self.outputs.trace {
            let trace = self.obs.trace().expect("opened with event rings on");
            create(path)?.write_all(to_perfetto_json(&trace).as_bytes())?;
            eprintln!("wrote trace {path}");
        }
        if let Some(path) = &self.outputs.report {
            create(path)?.write_all(self.obs.report().to_json(false).as_bytes())?;
            eprintln!("wrote run report {path}");
        }
        Ok(())
    }
}
