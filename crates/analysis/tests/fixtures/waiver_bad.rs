// analyze-as: crates/core/src/waiver_bad.rs
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(unwrap) //~ waiver-justified
}
pub fn g(x: Option<u32>) -> u32 {
    // lint:allow(nosuchrule) the rule name is a typo //~ waiver-justified
    x.unwrap_or_default()
}
pub fn wrong_rule(x: Option<u32>) -> u32 {
    x.unwrap() // lint:allow(wallclock) fixture: a waiver suppresses only the rule it names //~ unwrap
}
pub fn too_far(x: Option<u32>) -> u32 {
    // lint:allow(unwrap) fixture: two lines above the hit is too far

    x.unwrap() //~ unwrap
}
pub fn retired_rule(x: Option<u32>) -> u32 {
    // lint:allow(retrytimer) fixture: a deleted rule's waiver names no rule //~ waiver-justified
    x.unwrap_or_default()
}
