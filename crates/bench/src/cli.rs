//! The one command-line parser every harness binary shares.
//!
//! A binary declares the flags it accepts as a `&[Flag]`. [`from_env`]
//! exits 2 with a usage line on an unknown flag, a missing value or a
//! value that does not parse, before the binary does any work.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::str::FromStr;

/// What follows a flag: nothing, a float, a non-negative integer, or text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Switch,
    Float,
    Count,
    Text,
}

/// One accepted flag: its name, dashes included, and what follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub &'static str, pub Kind);

/// Arguments that passed [`parse`]: each given flag with its value text
/// (empty for a switch). A flag given twice keeps its last value.
#[derive(Debug, Clone)]
pub struct Flags {
    spec: &'static [Flag],
    values: BTreeMap<&'static str, String>,
}

impl Flags {
    /// The text given for flag `name`, if it was given.
    ///
    /// # Panics
    ///
    /// If `name` is not in the spec the flags were parsed against.
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(self.spec.iter().any(|f| f.0 == name), "flag {name} is not declared");
        self.values.get(name).map(String::as_str)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value given for a [`Kind::Float`] or [`Kind::Count`] flag.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Debug,
    {
        self.text(name).map(|v| v.parse().expect("checked by parse"))
    }
}

/// Checks `args` (without the program name) against `spec`.
pub fn parse<S: AsRef<str>>(spec: &'static [Flag], args: &[S]) -> Result<Flags, String> {
    let mut values = BTreeMap::new();
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        let &Flag(name, kind) =
            spec.iter().find(|f| f.0 == arg).ok_or_else(|| format!("unknown argument: {arg}"))?;
        let value = match kind {
            Kind::Switch => "",
            _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        let valid = match kind {
            Kind::Float => value.parse::<f64>().is_ok(),
            Kind::Count => value.parse::<usize>().is_ok(),
            Kind::Switch | Kind::Text => true,
        };
        if !valid {
            return Err(format!("{arg}: cannot parse {value:?}"));
        }
        values.insert(name, value.to_string());
    }
    Ok(Flags { spec, values })
}

/// Parses this process's arguments; on an error prints it and a usage
/// line for `bin` to stderr and exits 2.
pub fn from_env(bin: &str, spec: &'static [Flag]) -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(spec, &args).unwrap_or_else(|e| {
        let flags: Vec<String> = spec
            .iter()
            .map(|&Flag(name, kind)| match kind {
                Kind::Switch => format!("[{name}]"),
                _ => format!("[{name} <{}>]", format!("{kind:?}").to_lowercase()),
            })
            .collect();
        eprintln!("{e}\nusage: {bin} {}", flags.join(" "));
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[Flag] = &[
        Flag("--fast", Kind::Switch),
        Flag("--scale", Kind::Float),
        Flag("--reps", Kind::Count),
        Flag("--out", Kind::Text),
    ];

    #[test]
    fn accepts_declared_flags_and_keeps_the_last_value() {
        let f = parse(SPEC, &["--scale", "0.1", "--fast", "--reps", "8", "--reps", "9"]).unwrap();
        assert!(f.switch("--fast"));
        assert_eq!(f.value::<f64>("--scale"), Some(0.1));
        assert_eq!(f.value::<usize>("--reps"), Some(9));
        assert_eq!(f.text("--out"), None);
    }

    #[test]
    fn rejects_unknown_missing_and_unparsable() {
        for args in [
            &["--bogus"][..],
            &["positional"],
            &["--scale"],
            &["--scale", "banana"],
            &["--reps", "-1"],
            &["--reps", "2.5"],
        ] {
            assert!(parse(SPEC, args).is_err(), "{args:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn reading_an_undeclared_flag_panics() {
        parse(SPEC, &[] as &[&str]).unwrap().switch("--fsat");
    }
}
