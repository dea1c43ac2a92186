//! Regression fixture for the parser's test scopes. Tagged lines must either be
//! hidden as test code or stay visible to the rules.

pub fn live_before() {} // LIVE

#[cfg(test)]
// helper notes: the shard map { id -> series } is rebuilt per case MASKED
mod tests {
    // MASKED
    fn masked_helper() {
        let v: Option<u8> = None;
        v.unwrap(); // MASKED: test code, must not be flagged
    } // MASKED
} // MASKED

#[cfg(test)]
use std::collections::HashMap; // MASKED: the use item itself

pub fn live_after() {
    // LIVE
    let v: Option<u8> = Some(1);
    v.unwrap(); // LIVE: exactly this unwrap must be flagged
} // LIVE

#[cfg(test)] mod inline_brace_tests {
    fn also_masked() {
        let v: Option<u8> = None;
        v.unwrap(); // MASKED
    }
} // MASKED

pub fn live_tail() {} // LIVE
