// analyze-as: crates/core/src/unwrap_bad.rs
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap() //~ unwrap
}
pub fn g(x: Result<u32, ()>) -> u32 {
    x.expect("boom") //~ unwrap
}
pub fn multiline(x: Option<u32>) -> u32 {
    x.map(|v| v + 1)
        .unwrap() //~ unwrap
}
#[cfg(test)]
mod tests {
    fn t(x: Option<u32>) -> u32 {
        x.unwrap()
    }
}
pub fn after_the_test_mod_is_production_again(x: Option<u32>) -> u32 {
    x.unwrap() //~ unwrap
}
