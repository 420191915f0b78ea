//! Hygiene fixtures plus pragma behavior: honored suppression,
//! reason-less pragma, malformed pragma, stale pragma.

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // line 5: .unwrap()
}

pub fn must(x: Option<u32>) -> u32 {
    x.expect("present") // line 9: .expect()
}

pub fn boom() {
    panic!("boom"); // line 13: panic!
}

pub fn log(msg: &str) {
    println!("{msg}"); // line 17: println!
}

pub fn peek(x: u32) -> u32 {
    dbg!(x) // line 21: dbg!
}

pub fn suppressed(x: Option<u32>) -> u32 {
    // uc-lint: allow(hygiene) -- fixture: a pragma with a reason is honored
    x.expect("suppressed: no diagnostic for this line")
}

pub fn reasonless(x: Option<u32>) -> u32 {
    // uc-lint: allow(hygiene)
    x.expect("line 31: pragma diag at 30 AND hygiene diag here")
}

pub fn mangled(x: Option<u32>) -> u32 {
    // uc-lint: allow hygiene please
    x.expect("line 36: malformed-pragma diag at 35 AND hygiene diag here")
}

pub fn tidy(x: u32) -> u32 {
    // uc-lint: allow(hygiene) -- fixture: line 40 suppresses nothing, since nothing below panics anymore
    x
}
