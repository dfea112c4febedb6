// lint-rules: strict
//
// `#[cfg(test)]` gates exactly one item. Its region ends at the item's own
// `;` or at the `}` closing its body, so the item after a `;`-terminated
// test-only item is live code. A `;` inside brackets (`[u8; 2]`) does not
// end the item early.

#[cfg(test)]
use std::rc::Rc;

pub fn live(x: Option<u8>) -> u8 {
    x.unwrap() //~ ERROR unwrap
}

#[cfg(test)]
fn sample() -> [u8; 2] {
    [Some(1u8).unwrap(), 0]
}

#[cfg(test)]
const TABLE: [Option<u8>; 2] = [Some(1), None];

pub fn also_live(x: Option<u8>) -> u8 {
    x.expect("set") //~ ERROR expect
}

#[cfg(test)]
mod tests {
    #[test]
    fn region_covers_the_module() {
        assert_eq!(super::sample()[1], 0);
        assert!(super::TABLE[0].unwrap() == 1);
    }
}
