// analyze-as: crates/core/src/unwrap_good.rs
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
pub fn s() -> &'static str {
    ".unwrap() inside a string literal is not a call"
}
// never call .unwrap() in production (a comment is not a call)
/* nor is x.expect("boom")
   in a block comment */
pub fn out_of_scope_clone(x: &Vec<u32>) -> Vec<u32> {
    x.clone() // recclone/routealloc are scoped to their modules
}
#[cfg(test)]
mod tests {
    fn t(x: Option<u32>) -> u32 {
        x.unwrap()
    }
}
