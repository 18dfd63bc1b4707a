// Fixture: three patterns that must NOT fire:
//  - a collective called unconditionally,
//  - a rank guard around non-collective work (root-only logging),
//  - a rank-guarded collective in a function UNREACHABLE from any entry
//    point (dead tooling code is out of SPMD scope).
pub fn partition_distributed(comm: &Comm) {
    barrier(comm);
    if comm.rank() == 0 {
        log_summary(comm.rank());
    }
    if let Some(v) = maybe(comm) {
        drop(v);
    }
}

fn log_summary(rank: usize) {
    drop(rank);
}

fn maybe(comm: &Comm) -> Option<u64> {
    Some(comm.rank() as u64)
}

fn unreachable_tool(comm: &Comm) {
    if comm.rank() == 0 {
        barrier(comm);
    }
}
