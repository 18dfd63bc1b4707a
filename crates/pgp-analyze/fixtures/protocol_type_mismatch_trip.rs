// Fixture: the send site and recv site for `tags::DATA` disagree on the
// payload type -> protocol-type-mismatch must fire.
pub mod tags {
    pub const COLLECTIVE_TAG_BASE: u64 = 1 << 48;
    pub const BLOCK_SPAN: u64 = 1 << 16;
    pub const DATA: u64 = 0x01;
}

fn sender(comm: &Comm) {
    let tag = comm.fresh_tag_block() + tags::DATA;
    comm.send::<Vec<u64>>(0, tag, Vec::new());
}

fn receiver(comm: &Comm) {
    let tag = comm.fresh_tag_block() + tags::DATA;
    let got: Vec<u32> = comm.recv(0, tag);
    drop(got);
}
