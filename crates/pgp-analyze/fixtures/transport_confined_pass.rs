// Pass fixture for transport-confined: an algorithm-layer file that moves
// data exclusively through the Comm send/recv/collective API. The backend
// (threads or sockets) is invisible from here — exactly the property the
// rule protects.

pub mod tags {
    pub const DATA: u64 = 0x01;
}

fn exchange(comm: &Comm) -> Vec<u64> {
    let tag = comm.fresh_tag_block() + tags::DATA;
    comm.send::<Vec<u64>>(0, tag, vec![1, 2, 3]);
    let v: Vec<u64> = comm.recv(0, tag);
    v
}

fn agree(comm: &Comm, x: u64) -> u64 {
    allreduce_sum(comm, x)
}
