//! Shared command-line argument family for the `dup-experiments` binary.
//!
//! The `fuzz`, `chaos`, `scenarios`, `trace-report`, and `--trace` entry
//! points all need the same three knobs — how many derived scenario seeds to run, a
//! single scenario seed to replay exactly, and a scheme restriction.
//! [`ScenarioArgs`] is the one parser for the family:
//!
//! * `--seeds N` — scenarios per scheme (campaign size),
//! * `--replay SEED` — re-run exactly one scenario seed (as printed by a
//!   failing campaign) instead of a full seed set,
//! * `--scheme pcx|cup|dup` — restrict to one scheme.

use dup_core::SchemeKind;

/// The uniform seed-set/scheme-selection arguments (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ScenarioArgs {
    /// Scenarios per scheme; `None` means the subcommand's default.
    pub seeds: Option<usize>,
    /// Replay exactly one scenario seed instead of a derived seed set.
    pub replay: Option<u64>,
    /// Restrict to one scheme; `None` means the subcommand's default set.
    pub scheme: Option<SchemeKind>,
}

impl ScenarioArgs {
    /// Tries to consume `flag` (reading its value from `args`). Returns
    /// `Ok(true)` when the flag belongs to this family, `Ok(false)` when
    /// it does not, and `Err` with a usage message when the flag is ours
    /// but its value is missing or malformed.
    pub fn try_consume(
        &mut self,
        flag: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--seeds" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => self.seeds = Some(n),
                _ => return Err(format!("{flag} needs a positive integer")),
            },
            "--replay" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => self.replay = Some(seed),
                None => return Err(format!("{flag} needs an integer")),
            },
            "--scheme" => match args.next().map(|s| s.parse()) {
                Some(Ok(kind)) => self.scheme = Some(kind),
                Some(Err(e)) => return Err(e),
                None => return Err(format!("{flag} needs pcx, cup, or dup")),
            },
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The scenario count, with the subcommand's default.
    pub fn seeds_or(&self, default: usize) -> usize {
        self.seeds.unwrap_or(default)
    }

    /// The scheme set to run: the restriction when given, else all three.
    pub fn schemes(&self) -> Vec<SchemeKind> {
        match self.scheme {
            Some(kind) => vec![kind],
            None => SchemeKind::ALL.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consume(args: &mut ScenarioArgs, argv: &[&str]) -> Result<bool, String> {
        let mut it = argv[1..].iter().map(|s| s.to_string());
        args.try_consume(argv[0], &mut it)
    }

    #[test]
    fn canonical_spellings_parse() {
        let mut args = ScenarioArgs::default();
        assert_eq!(consume(&mut args, &["--seeds", "8"]), Ok(true));
        assert_eq!(consume(&mut args, &["--replay", "1234"]), Ok(true));
        assert_eq!(consume(&mut args, &["--scheme", "cup"]), Ok(true));
        assert_eq!(args.seeds, Some(8));
        assert_eq!(args.replay, Some(1234));
        assert_eq!(args.scheme, Some(SchemeKind::Cup));
        assert_eq!(args.schemes(), vec![SchemeKind::Cup]);
    }

    #[test]
    fn foreign_flags_are_left_alone() {
        let mut args = ScenarioArgs::default();
        assert_eq!(consume(&mut args, &["--jobs", "4"]), Ok(false));
        assert_eq!(args.seeds, None);
    }

    #[test]
    fn malformed_values_report_the_spelling_used() {
        let mut args = ScenarioArgs::default();
        let err = consume(&mut args, &["--seeds", "zero"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        let err = consume(&mut args, &["--scheme", "bayeux"]).unwrap_err();
        assert!(err.contains("bayeux"), "{err}");
    }

    #[test]
    fn defaults_fall_through() {
        let args = ScenarioArgs::default();
        assert_eq!(args.seeds_or(16), 16);
        assert_eq!(args.schemes(), SchemeKind::ALL.to_vec());
    }
}
