//! F1 bad fixture: an `unsafe` block in a non-shim crate.

pub fn answer() -> u32 {
    unsafe { 42 }
}
