//! A small `--flag value` argument parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// The stored form of one option: its value plus whether the value was
/// implied (a bare flag) rather than written by the user. Accessors that
/// need a real value reject implicit ones instead of silently parsing the
/// stand-in `"true"` — a trailing `--peers` or a `--splicing --peers 4`
/// typo surfaces as a clear error.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OptionValue {
    value: String,
    implicit: bool,
}

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The first non-flag argument.
    pub command: String,
    options: BTreeMap<String, OptionValue>,
    /// Every key an accessor was asked for: once a command has read its
    /// configuration, the options it takes.
    asked: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses raw arguments.
    ///
    /// Flags take exactly one value, written `--peers 8` or `--peers=8`.
    /// Bare flags (`--cdn`) get the implicit value `"true"` when the next
    /// token is another flag or the end of input; options that require a
    /// value report an error in that case instead of mis-parsing. A value
    /// that itself starts with `--` must use the `=` form.
    ///
    /// # Errors
    ///
    /// Returns a message when no subcommand is present, an option is
    /// repeated, or an option name is empty.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                let (key, opt) = match key.split_once('=') {
                    Some((key, value)) => (
                        key,
                        OptionValue {
                            value: value.to_owned(),
                            implicit: false,
                        },
                    ),
                    None => match iter.peek() {
                        Some(next) if !next.starts_with("--") => (
                            key,
                            OptionValue {
                                value: iter.next().expect("peeked").clone(),
                                implicit: false,
                            },
                        ),
                        _ => (
                            key,
                            OptionValue {
                                value: "true".to_owned(),
                                implicit: true,
                            },
                        ),
                    },
                };
                if key.is_empty() {
                    return Err(format!("empty option name in `{token}`"));
                }
                if args.options.insert(key.to_owned(), opt).is_some() {
                    return Err(format!("option --{key} given twice"));
                }
            } else if args.command.is_empty() {
                args.command = token.clone();
            } else {
                return Err(format!("unexpected argument `{token}`"));
            }
        }
        if args.command.is_empty() {
            return Err("no command given".to_owned());
        }
        Ok(args)
    }

    fn lookup(&self, key: &str) -> Option<&OptionValue> {
        self.asked.borrow_mut().insert(key.to_owned());
        self.options.get(key)
    }

    /// The raw value of an option, if present. Bare flags read as
    /// `"true"`; use [`Args::value`] for options that require an explicit
    /// value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.lookup(key).map(|opt| opt.value.as_str())
    }

    fn missing_value(key: &str) -> String {
        format!("--{key} needs a value (use --{key}=<value> if it starts with `--`)")
    }

    /// The explicit value of an option, if present.
    ///
    /// # Errors
    ///
    /// Returns a message when the option was passed as a bare flag (no
    /// value, or the would-be value was another `--flag`).
    pub fn value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.lookup(key) {
            None => Ok(None),
            Some(opt) if opt.implicit => Err(Self::missing_value(key)),
            Some(opt) => Ok(Some(opt.value.as_str())),
        }
    }

    /// Whether a flag is on: absent is off, bare or `true` / `1` / `yes`
    /// is on, `false` / `0` / `no` is off.
    ///
    /// # Errors
    ///
    /// Returns a message for any other value, which is most often the next
    /// word of the command line swallowed by a bare flag.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            None | Some("false" | "0" | "no") => Ok(false),
            Some("true" | "1" | "yes") => Ok(true),
            Some(other) => Err(format!(
                "--{key} is a flag (no value, or true / false), got `{other}`"
            )),
        }
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is missing or does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        }
    }

    /// A comma-separated list of numbers, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is missing or any element does not
    /// parse.
    pub fn num_list<T>(&self, key: &str, default: &[T]) -> Result<Vec<T>, String>
    where
        T: std::str::FromStr + Clone,
    {
        match self.value(key)? {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(|piece| {
                    piece
                        .trim()
                        .parse()
                        .map_err(|_| format!("--{key}: cannot parse `{piece}`"))
                })
                .collect(),
        }
    }

    /// Rejects an option that was passed but that no accessor asked for.
    /// A command calls this once it has read every option it takes and
    /// before it does any work, so a misspelt flag is an error instead of
    /// a silently ignored one.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first such option and listing the
    /// ones the command does take.
    pub fn reject_unread(&self) -> Result<(), String> {
        let asked = self.asked.borrow();
        match self.options.keys().find(|key| !asked.contains(*key)) {
            None => Ok(()),
            Some(key) => Err(format!(
                "unknown option --{key} (`{}` takes {})",
                self.command,
                asked
                    .iter()
                    .map(|known| format!("--{known}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(&tokens.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_options() {
        let args = parse(&["run", "--peers", "8", "--splicing", "gop", "--cdn"]).unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.get("peers"), Some("8"));
        assert_eq!(args.get("splicing"), Some("gop"));
        assert_eq!(args.flag("cdn"), Ok(true));
        assert_eq!(args.flag("tracker"), Ok(false));
    }

    #[test]
    fn numeric_helpers() {
        let args = parse(&["run", "--peers", "8", "--bandwidths", "128,256"]).unwrap();
        assert_eq!(args.num("peers", 3usize).unwrap(), 8);
        assert_eq!(args.num("seed", 42u64).unwrap(), 42);
        assert_eq!(
            args.num_list("bandwidths", &[64.0f64]).unwrap(),
            vec![128.0, 256.0]
        );
        assert_eq!(args.num_list("missing", &[64.0f64]).unwrap(), vec![64.0]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["run", "extra"]).is_err());
        assert!(parse(&["run", "--x", "1", "--x", "2"]).is_err());
        let args = parse(&["run", "--peers", "eight"]).unwrap();
        assert!(args.num("peers", 1usize).is_err());
    }

    #[test]
    fn bare_flag_before_another_flag() {
        let args = parse(&["run", "--cdn", "--peers", "4"]).unwrap();
        assert_eq!(args.flag("cdn"), Ok(true));
        assert_eq!(args.get("peers"), Some("4"));
    }

    #[test]
    fn equals_form_is_accepted() {
        let args = parse(&["run", "--peers=8", "--splicing=4s"]).unwrap();
        assert_eq!(args.num("peers", 1usize).unwrap(), 8);
        assert_eq!(args.value("splicing").unwrap(), Some("4s"));
        // The `=` form carries values that start with `--`.
        let args = parse(&["run", "--label=--weird"]).unwrap();
        assert_eq!(args.value("label").unwrap(), Some("--weird"));
    }

    #[test]
    fn trailing_valueless_option_is_an_error_when_a_value_is_needed() {
        let args = parse(&["run", "--peers"]).unwrap();
        let err = args.num("peers", 1usize).unwrap_err();
        assert!(err.contains("--peers needs a value"), "{err}");
    }

    #[test]
    fn option_swallowing_a_flag_is_an_error_when_a_value_is_needed() {
        // `--splicing` forgot its value; the next token is another flag.
        let args = parse(&["run", "--splicing", "--peers", "4"]).unwrap();
        let err = args.value("splicing").unwrap_err();
        assert!(err.contains("--splicing needs a value"), "{err}");
        // The following flag still parsed normally.
        assert_eq!(args.num("peers", 1usize).unwrap(), 4);
    }

    #[test]
    fn bare_flags_still_read_as_flags() {
        let args = parse(&["run", "--cdn"]).unwrap();
        assert_eq!(args.flag("cdn"), Ok(true));
        assert!(
            args.value("cdn").is_err(),
            "bare flag has no explicit value"
        );
        let args = parse(&["run", "--cdn=true"]).unwrap();
        assert_eq!(args.flag("cdn"), Ok(true));
        assert_eq!(args.value("cdn").unwrap(), Some("true"));
    }

    #[test]
    fn a_flag_given_a_stray_value_is_an_error() {
        for (raw, want) in [
            ("true", true),
            ("1", true),
            ("yes", true),
            ("false", false),
            ("0", false),
            ("no", false),
        ] {
            let args = parse(&["run", "--defend", raw]).unwrap();
            assert_eq!(args.flag("defend"), Ok(want), "--defend {raw}");
            let args = parse(&["run", &format!("--defend={raw}")]).unwrap();
            assert_eq!(args.flag("defend"), Ok(want), "--defend={raw}");
        }
        let args = parse(&["run", "--defend", "banana", "--crash", "0.5"]).unwrap();
        assert_eq!(
            args.flag("defend"),
            Err("--defend is a flag (no value, or true / false), got `banana`".to_owned())
        );
        assert_eq!(args.num("crash", 0.0).unwrap(), 0.5);
        let args = parse(&["run", "--csv=nope"]).unwrap();
        assert!(args.flag("csv").is_err());
    }

    #[test]
    fn an_option_nobody_read_is_rejected() {
        let args = parse(&["run", "--peers", "4", "--seed", "7"]).unwrap();
        assert_eq!(args.num("peers", 1usize).unwrap(), 4);
        assert_eq!(args.num_list("seeds", &[1u64]).unwrap(), vec![1]);
        assert_eq!(args.flag("cdn"), Ok(false));
        assert_eq!(
            args.reject_unread().unwrap_err(),
            "unknown option --seed (`run` takes --cdn, --peers, --seeds)"
        );
        let args = parse(&["run", "--peers", "4"]).unwrap();
        assert!(args.reject_unread().is_err(), "not read yet");
        args.get("peers");
        assert_eq!(args.reject_unread(), Ok(()));
    }

    #[test]
    fn empty_option_name_is_rejected() {
        assert!(parse(&["run", "--"]).is_err());
        assert!(parse(&["run", "--=5"]).is_err());
    }
}
