//! P1 bad fixture: panicking calls in a panic-free crate's library code.

pub fn parse_port(s: &str) -> u16 {
    s.parse().unwrap()
}

pub fn not_done() {
    todo!("later")
}
