// lint-rules: determinism
//
// A finding reports the line its token sits on, also after a string literal
// that continues across lines with a trailing `\`.

pub fn banner() -> &'static str {
    "first line \
     second line \
     third line"
}

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now() //~ ERROR determinism
}
