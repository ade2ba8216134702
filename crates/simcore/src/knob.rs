//! The workspace's environment knobs, and the only code that reads them.
//!
//! Every `SYNCMECH_*` variable is declared once in [`ALL`] and read once,
//! at a binary's edge, through [`Knob::read`]; the value travels on as a
//! plain argument, so no library consults the process environment. One
//! rule covers them all: *unset* means the documented default, and a *set
//! but malformed* value is an error naming the knob, quoting the value and
//! stating what is accepted — a typo never silently changes what ran.

use std::str::FromStr;

/// One environment variable: its name and the two facts a rejection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The variable's name.
    pub name: &'static str,
    /// The accepted grammar.
    pub accepts: &'static str,
    /// What leaving the variable unset means.
    pub unset: &'static str,
}

const fn knob(name: &'static str, accepts: &'static str, unset: &'static str) -> Knob {
    Knob {
        name,
        accepts,
        unset,
    }
}

/// Host threads for the figure sweeps' cell fan-out.
pub const SWEEP_THREADS: Knob = knob(
    "SYNCMECH_SWEEP_THREADS",
    "a positive integer",
    "the host's parallelism",
);
/// Worker threads of the real-thread service load driver.
pub const SERVICE_THREADS: Knob = knob(
    "SYNCMECH_SERVICE_THREADS",
    "a positive integer",
    "the host's parallelism",
);
/// Lock-service telemetry mode.
pub const SERVICE_METRICS: Knob = knob(
    "SYNCMECH_SERVICE_METRICS",
    "off, counters or sampled:<N> with N >= 1",
    "counters",
);
/// Golden tests rewrite their expected files.
pub const BLESS: Knob = knob("SYNCMECH_BLESS", "0 or 1", "0");

/// Every supported knob (README's table lists exactly these).
pub const ALL: [Knob; 4] = [SWEEP_THREADS, SERVICE_THREADS, SERVICE_METRICS, BLESS];

impl Knob {
    /// Reads the variable and parses it with `parse`; `Ok(None)` when unset.
    pub fn read<T>(
        &self,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match std::env::var(self.name) {
            Ok(raw) => self.resolve(Some(&raw), parse),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => self
                .resolve(Some(&raw.to_string_lossy()), |_| {
                    Err("it is not UTF-8".to_string())
                }),
        }
    }

    /// [`Knob::read`] without the environment: `raw` is the variable's
    /// value, `None` when unset. `parse`'s error is the reason the
    /// rejection gives (may be empty).
    pub fn resolve<T>(
        &self,
        raw: Option<&str>,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some(raw) = raw else { return Ok(None) };
        parse(raw).map(Some).map_err(|why| {
            let why = if why.is_empty() {
                why
            } else {
                format!(" ({why})")
            };
            format!(
                "{}={raw:?} is rejected{why}: set {}, or unset it for {}",
                self.name, self.accepts, self.unset
            )
        })
    }
}

/// Parses a positive integer (surrounding whitespace tolerated).
pub fn positive<T: FromStr + Default + PartialEq>(raw: &str) -> Result<T, String> {
    match raw.trim().parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        Ok(_) => Err("zero is not positive".to_string()),
        Err(_) => Err("not a positive integer".to_string()),
    }
}

/// Parses an on/off flag: `1` or `0`.
pub fn flag(raw: &str) -> Result<bool, String> {
    match raw.trim() {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err(String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_and_flag_grammars() {
        assert_eq!(positive::<usize>(" 8 "), Ok(8));
        assert_eq!(positive::<u64>("25000"), Ok(25_000));
        for bad in ["", "0", "-1", "2.5", "lots"] {
            assert!(positive::<usize>(bad).is_err(), "{bad:?}");
        }
        assert_eq!(flag("1"), Ok(true));
        assert_eq!(flag("0"), Ok(false));
        for bad in ["", "yes", "2", "-1"] {
            assert!(flag(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn one_rejection_format() {
        assert_eq!(SWEEP_THREADS.resolve(None, positive::<usize>), Ok(None));
        assert_eq!(
            SWEEP_THREADS.resolve(Some("4"), positive::<usize>),
            Ok(Some(4))
        );
        assert_eq!(
            SWEEP_THREADS
                .resolve(Some("0"), positive::<usize>)
                .unwrap_err(),
            "SYNCMECH_SWEEP_THREADS=\"0\" is rejected (zero is not positive): \
             set a positive integer, or unset it for the host's parallelism"
        );
        assert_eq!(
            BLESS.resolve(Some("yes"), flag).unwrap_err(),
            "SYNCMECH_BLESS=\"yes\" is rejected: set 0 or 1, or unset it for 0"
        );
    }

    #[test]
    fn unset_knobs_read_as_none() {
        // Nothing in the test environment sets a made-up name.
        let ghost = knob("SIMCORE_KNOB_TEST_NEVER_SET", "nothing", "nothing");
        assert_eq!(ghost.read(positive::<usize>), Ok(None));
    }
}
