// Fixture: send and recv agree on `Vec<u64>` (recv via `let` annotation,
// send via turbofish, written with a full path on one side to exercise
// type normalization) -> no finding.
pub mod tags {
    pub const COLLECTIVE_TAG_BASE: u64 = 1 << 48;
    pub const BLOCK_SPAN: u64 = 1 << 16;
    pub const DATA: u64 = 0x01;
}

fn sender(comm: &Comm) {
    let tag = comm.fresh_tag_block() + tags::DATA;
    comm.send::<std::vec::Vec<u64>>(0, tag, Vec::new());
}

fn receiver(comm: &Comm) {
    let tag = comm.fresh_tag_block() + tags::DATA;
    let got: Vec<u64> = comm.recv(0, tag);
    drop(got);
}
