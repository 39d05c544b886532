//! The `invariant!` macro: a documented alternative to `.unwrap()` /
//! `.expect()` in runtime code.
//!
//! The workspace lint (`gnnlab-lint`, rule `no-unwrap`) bans bare
//! unwraps in the runtime crates because they conflate two very
//! different things: *error paths* (which deserve typed errors) and
//! *protocol invariants* (conditions the surrounding code makes
//! impossible, where a failure means the code — not the input — is
//! wrong). `invariant!` is for the second kind only:
//!
//! ```
//! use gnnlab_par::invariant;
//! let four: [u8; 4] = invariant!(
//!     (&[1u8, 2, 3, 4][..]).try_into(),
//!     "a four-byte slice always converts to [u8; 4]"
//! );
//! assert_eq!(four, [1, 2, 3, 4]);
//! ```
//!
//! It accepts an `Option` or a `Result` (with a `Debug` error) and
//! panics with the written justification — so every remaining panic
//! site in runtime code names the invariant it relies on, and the lint
//! can keep flagging the undocumented ones.

/// What [`invariant!`](macro@crate::invariant) can check: `Option<T>` and
/// `Result<T, E: Debug>`.
pub trait Invariant {
    /// The value when the invariant holds.
    type Ok;
    /// `Ok(value)` when the invariant holds, `Err(detail)` otherwise.
    fn check(self) -> Result<Self::Ok, String>;
}

impl<T> Invariant for Option<T> {
    type Ok = T;
    fn check(self) -> Result<T, String> {
        self.ok_or_else(|| "unexpected None".to_string())
    }
}

impl<T, E: core::fmt::Debug> Invariant for Result<T, E> {
    type Ok = T;
    fn check(self) -> Result<T, String> {
        self.map_err(|e| format!("{e:?}"))
    }
}

/// Unwraps an `Option`/`Result` whose failure the surrounding protocol
/// rules out, panicking with the written justification if the invariant
/// is ever broken. See the [module docs](mod@crate::invariant) for when this
/// is appropriate over a typed error.
#[macro_export]
macro_rules! invariant {
    ($expr:expr, $($why:tt)+) => {
        match $crate::invariant::Invariant::check($expr) {
            Ok(v) => v,
            Err(detail) => panic!(
                "invariant violated at {}:{}: {} ({detail})",
                file!(),
                line!(),
                format_args!($($why)+),
            ),
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn passes_through_ok_values() {
        assert_eq!(invariant!(Some(7), "always some"), 7);
        let r: Result<u32, &str> = Ok(9);
        assert_eq!(invariant!(r, "always ok"), 9);
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn none_panics_with_justification() {
        let n: Option<u32> = None;
        invariant!(n, "this test breaks its own invariant");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn result_error_detail_is_included() {
        let r: Result<u32, &str> = Err("boom");
        invariant!(r, "carries the error detail");
    }
}
