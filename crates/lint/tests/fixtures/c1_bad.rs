//! C1 bad fixture: a silently truncating length cast on the wire path.

pub fn header(body_len: u64) -> u32 {
    body_len as u32
}
