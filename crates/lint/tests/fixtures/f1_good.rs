//! F1 good fixture: safe code only.

pub fn answer() -> u32 {
    42
}
