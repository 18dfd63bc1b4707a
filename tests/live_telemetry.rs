//! Live telemetry plane, end to end (DESIGN.md §16): an observed
//! partitioner run streams NDJSON snapshots through a [`LiveMonitor`]
//! while in flight, and the stream's final per-PE aggregates equal the
//! run report's comm counters *exactly* — on both comm backends. Plus
//! the resource-sample contracts: per-PE peak RSS in the stream is
//! monotone and nonzero, and the report embeds a closing sample.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_dmp::{BackendKind, RunConfig};
use pgp::pgp_obs::{
    check_stream_matches_report, validate_live_stream, LiveMonitor, LiveMonitorConfig,
    MetricSnapshot, Obs,
};
use std::sync::Arc;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

/// A `Write` that appends into a shared buffer, so the test can read
/// back what the monitor thread streamed.
#[derive(Clone, Default)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        let bytes = self.0.lock().expect("stream buffer lock").clone();
        String::from_utf8(bytes).expect("NDJSON is UTF-8")
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("stream buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One observed live run over `graph`: returns the streamed NDJSON text
/// and the run report assembled from the same registry.
fn live_run(
    graph: &pgp::pgp_graph::CsrGraph,
    p: usize,
    backend: BackendKind,
    seed: u64,
) -> (String, pgp::pgp_obs::RunReport) {
    let c = cfg(4, seed);
    let obs = Obs::new(p);
    obs.set_backend(backend.name());
    obs.enable_live();
    let buf = SharedBuf::default();
    let monitor = LiveMonitor::spawn(
        Arc::clone(&obs),
        LiveMonitorConfig::default(),
        Box::new(buf.clone()),
    )
    .expect("spawn live monitor");
    let run = RunConfig {
        backend,
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    Partitioner::new(&c)
        .run(run)
        .partition(graph, p)
        .expect("valid input");
    let stats = monitor.finish().expect("monitor stream");
    assert!(stats.snapshots > 0, "run streamed no snapshots at all");
    (buf.text(), obs.report())
}

/// The tentpole acceptance contract: on both backends, the stream
/// validates (schema, per-rank seq and counter monotonicity, summary
/// totals) and its final aggregates equal the report's counters exactly.
#[test]
fn stream_validates_and_matches_report_on_both_backends() {
    let (sbm, _) = pgp::pgp_gen::sbm::sbm(800, Default::default(), 11);
    let ba = pgp::pgp_gen::ba::barabasi_albert(600, 4, 23);
    for backend in [BackendKind::Threads, BackendKind::Sockets] {
        for (name, graph) in [("sbm", &sbm), ("ba", &ba)] {
            let (text, report) = live_run(graph, 4, backend, 31);
            let summary = validate_live_stream(&text)
                .unwrap_or_else(|e| panic!("{name}/{}: invalid stream: {e}", backend.name()));
            assert_eq!(summary.p, 4);
            assert_eq!(summary.backend, backend.name());
            check_stream_matches_report(&summary, &report)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", backend.name()));
        }
    }
}

/// Resource contract: every streamed snapshot carries a nonzero RSS, the
/// per-rank peak never decreases within the stream (the publisher clamps
/// against VmHWM jitter), and the report's closing per-PE samples agree
/// with the stream's finals.
#[test]
fn peak_rss_is_monotone_and_nonzero_in_stream_and_report() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(800, Default::default(), 7);
    let (text, report) = live_run(&g, 4, BackendKind::Threads, 7);
    let mut last_peak = [0u64; 4];
    let mut snapshot_lines = 0usize;
    for line in text
        .lines()
        .filter(|l| l.contains("\"type\": \"snapshot\""))
    {
        let snap = MetricSnapshot::from_json_line(line).expect("snapshot line parses");
        snapshot_lines += 1;
        assert!(
            snap.resources.rss_current_kb > 0,
            "rank {} published a zero RSS",
            snap.rank
        );
        assert!(
            snap.resources.rss_peak_kb >= snap.resources.rss_current_kb,
            "peak must dominate current"
        );
        assert!(
            snap.resources.rss_peak_kb >= last_peak[snap.rank],
            "rank {} peak RSS went backwards: {} -> {}",
            snap.rank,
            last_peak[snap.rank],
            snap.resources.rss_peak_kb
        );
        last_peak[snap.rank] = snap.resources.rss_peak_kb;
    }
    assert!(snapshot_lines > 0, "no snapshot lines in the stream");
    // The report's closing sample was taken by the runner after each
    // PE's closure returned — also nonzero on Linux, peak-dominant.
    for pe in &report.per_pe {
        assert!(
            pe.resources.rss_current_kb > 0,
            "PE {} report RSS zero",
            pe.rank
        );
        assert!(pe.resources.rss_peak_kb >= pe.resources.rss_current_kb);
    }
    // Aggregate roll-ups derive from the same samples.
    assert!(report.aggregate.rss_peak_max_kb >= last_peak.iter().copied().max().unwrap_or(0));
}

/// Progress markers: the partitioner's cycle/level/round seams must
/// actually reach the stream — at least one snapshot carries a nonzero
/// round (SCLP iterates more than once on every preset).
#[test]
fn progress_markers_reach_the_stream() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(800, Default::default(), 19);
    let (text, _report) = live_run(&g, 4, BackendKind::Threads, 19);
    let mut saw_round = false;
    let mut saw_phase_path = false;
    for line in text
        .lines()
        .filter(|l| l.contains("\"type\": \"snapshot\""))
    {
        let snap = MetricSnapshot::from_json_line(line).expect("snapshot line parses");
        saw_round |= snap.round > 0;
        saw_phase_path |= !snap.phase_path.is_empty();
    }
    assert!(saw_round, "no snapshot ever carried a round marker");
    assert!(saw_phase_path, "no snapshot ever carried a phase path");
}
