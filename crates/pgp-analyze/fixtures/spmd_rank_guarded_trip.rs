// Fixture: a collective under a rank-dependent branch, reachable from the
// SPMD entry point through one call hop and a derived-rank variable ->
// spmd-rank-guarded-collective must fire (twice: barrier and
// fresh_tag_block).
pub fn partition_distributed(comm: &Comm) {
    helper(comm);
}

fn helper(comm: &Comm) {
    let vrank = comm.rank() ^ 1;
    if vrank == 0 {
        barrier(comm);
    } else {
        let t = comm.fresh_tag_block();
        drop(t);
    }
}
