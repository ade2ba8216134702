//! `SYNCMECH_BLESS`, the workspace's one environment variable, and the only
//! code that reads it.
//!
//! The golden tests read it through [`bless`] to rewrite their expected
//! files instead of diffing; no shipped binary reads the environment.
//! *Unset* means off, and a *set but malformed* value panics with a message
//! naming the variable, quoting the value and stating what is accepted — a
//! typo never silently changes what ran.

/// The variable's name.
const BLESS: &str = "SYNCMECH_BLESS";

/// Whether `SYNCMECH_BLESS` asks the golden tests to rewrite their
/// expected files: unset or `0` is off, `1` is on.
///
/// # Panics
///
/// On any other value (see the module docs).
pub fn bless() -> bool {
    let raw = std::env::var_os(BLESS).map(|raw| raw.to_string_lossy().into_owned());
    resolve(raw.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
}

/// [`bless`] without the environment: `raw` is the variable's value,
/// `None` when unset.
fn resolve(raw: Option<&str>) -> Result<bool, String> {
    match raw {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(raw) => Err(format!(
            "{BLESS}={raw:?} is rejected: set 0 or 1, or unset it for 0"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bless_is_0_or_1_and_rejects_anything_else() {
        assert_eq!(resolve(None), Ok(false));
        assert_eq!(resolve(Some("0")), Ok(false));
        assert_eq!(resolve(Some("1")), Ok(true));
        assert_eq!(
            resolve(Some("yes")).unwrap_err(),
            "SYNCMECH_BLESS=\"yes\" is rejected: set 0 or 1, or unset it for 0"
        );
        for bad in ["", " 1", "2", "-1", "true"] {
            assert!(resolve(Some(bad)).is_err(), "{bad:?}");
        }
    }
}
