//! What a front end writes from one run's registry — the JSON run report
//! and the Perfetto trace — so the CLIs share one copy of it.

use crate::{to_perfetto_json, Obs};
use std::io;
use std::sync::Arc;

/// The observation outputs a caller asked for (file paths; parent
/// directories are created on demand).
#[derive(Clone, Debug, Default)]
pub struct ObsOutputs {
    /// Write the schema-versioned JSON `RunReport` here.
    pub report: Option<String>,
    /// Write the per-PE event logs here as Perfetto JSON.
    pub trace: Option<String>,
}

/// An open observation: the registry to hand the run. Close with
/// [`ObsSession::finish`] once the PEs have joined.
pub struct ObsSession {
    /// The registry the run records into.
    pub obs: Arc<Obs>,
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
        self.report.is_some() || self.trace.is_some()
    }

    /// Builds the registry for `p` PEs.
    pub fn open(self, p: usize) -> ObsSession {
        ObsSession {
            obs: Obs::new(p),
            outputs: self,
        }
    }
}

impl ObsSession {
    /// Writes the trace and the report. Each file written is named on
    /// stderr.
    pub fn finish(self) -> io::Result<()> {
        use io::Write;
        if let Some(path) = &self.outputs.trace {
            create(path)?.write_all(to_perfetto_json(&self.obs.trace()).as_bytes())?;
            eprintln!("wrote trace {path}");
        }
        if let Some(path) = &self.outputs.report {
            create(path)?.write_all(self.obs.report().to_json().as_bytes())?;
            eprintln!("wrote run report {path}");
        }
        Ok(())
    }
}
