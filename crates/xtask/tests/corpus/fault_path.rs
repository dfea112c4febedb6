// lint-rules: fault-path
//
// On the brownout/fault path every `.unwrap()` and `.expect(` fires. Test
// regions, inline escapes and the allow-list exempt nothing: a panic in
// fault handling masquerades as the injected fault. Mentions in comments
// and strings stay inert.

pub fn recover(state: Option<u32>) -> u32 {
    state.unwrap() //~ ERROR fault-path
}

pub fn escaped(state: Option<u32>) -> u32 {
    // physics-lint: allow(unwrap): fixture — not honored on the fault path
    state.unwrap() //~ ERROR fault-path
}

pub fn trailing(state: Option<u32>) -> u32 {
    state.expect("armed") // physics-lint: allow(expect): fixture — not honored here
    //~^ ERROR fault-path
}

/// Never call `.unwrap()` here.
pub fn inert() -> &'static str {
    "an .expect( inside a string"
}

pub fn threaded(state: Option<u32>) -> Result<u32, &'static str> {
    state.ok_or("no state")
}

#[cfg(test)]
mod tests {
    #[test]
    fn brownout_helper() {
        let v = super::recover(Some(1)).checked_add(1).expect("no overflow"); //~ ERROR fault-path
        assert_eq!(Some(v).unwrap(), 2); //~ ERROR fault-path
    }
}
