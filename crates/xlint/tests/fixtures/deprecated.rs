//! Seeded `no-deprecated` violations: kept-alive shims. Never compiled
//! — linted as text by `tests/lints.rs`.

#[deprecated]
pub fn bare() {}

#[deprecated(note = "use `Engine::builder(lib).workers(n).build()`")]
pub fn with_note() {}

#[deprecated = "use `g`"]
pub fn with_value() {}

# [ deprecated ]
pub fn spaced() {}

// Not findings: silencing a deprecated *use*, a comment mentioning
// #[deprecated], a string holding it, and a different attribute.
#[allow(deprecated)]
pub fn caller() -> &'static str {
    "#[deprecated]"
}

#[deprecated_since]
pub fn other_attr() {}

#[cfg(test)]
mod tests {
    #[deprecated]
    fn old_helper() {}
}
