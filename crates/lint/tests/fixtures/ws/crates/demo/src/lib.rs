//! Fixture crate root. Deliberately missing `#![forbid(unsafe_code)]`
//! so the unsafe rule fires at line 1, plus one `unsafe` keyword use.

pub mod api;
pub mod audit;
pub mod clock_ok;
pub mod det;
pub mod hyg;
pub mod keyspace;

pub fn touch_raw(ptr: *const u8) -> u8 {
    unsafe { *ptr } // line 12: the `unsafe` keyword itself
}
