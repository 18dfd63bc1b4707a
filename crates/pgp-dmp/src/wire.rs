//! Message size: the bytes a payload would occupy between MPI processes.
//!
//! A message crosses the mailbox as its typed value (`mailbox.rs`); this
//! module only says how many bytes the recorder counts for it. The rule is
//! the size of a flat little-endian layout with no padding and no
//! per-message header:
//! * fixed-width integers and `f64` count their width; `usize` counts 8,
//!   independent of the host's pointer width;
//! * `bool` and `Option`'s discriminant count 1 byte each;
//! * sequences (`Vec<T>`, `String`) count an 8-byte length plus their
//!   elements, so `8 + len · w` for elements of fixed width `w`;
//! * tuples count the sum of their fields; `()` counts 0.

/// A message payload: any value a [`Comm`](crate::Comm) can send, together
/// with the bytes it counts for (module docs).
pub trait Wire: Send + Sized + 'static {
    /// The bytes this value counts for in the per-tag traffic totals.
    fn wire_bytes(&self) -> u64;
}

macro_rules! wire_fixed {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn wire_bytes(&self) -> u64 {
                pgp_graph::ids::count_global(std::mem::size_of::<$t>())
            }
        }
    )*};
}

wire_fixed!(u8, u16, u32, u64, i8, i16, i32, i64, f64);

impl Wire for usize {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

impl Wire for bool {
    fn wire_bytes(&self) -> u64 {
        1
    }
}

impl Wire for () {
    fn wire_bytes(&self) -> u64 {
        0
    }
}

impl Wire for String {
    fn wire_bytes(&self) -> u64 {
        8 + pgp_graph::ids::count_global(self.len())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_bytes(&self) -> u64 {
        8 + self.iter().map(Wire::wire_bytes).sum::<u64>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_bytes(&self) -> u64 {
        1 + self.as_ref().map_or(0, Wire::wire_bytes)
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn wire_bytes(&self) -> u64 {
                0 $(+ self.$idx.wire_bytes())+
            }
        }
    };
}

wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
