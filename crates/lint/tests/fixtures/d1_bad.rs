//! D1 bad fixture: a wall-clock read and a randomly seeded map in a
//! deterministic crate's library code.

pub fn stamp() -> u64 {
    let t = std::time::SystemTime::now();
    t.elapsed().map(|d| d.as_secs()).unwrap_or(0)
}

pub fn seen() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}
