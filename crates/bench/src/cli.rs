//! Strict command lines for the bench binaries.
//!
//! Each binary declares the options it accepts. `--help` prints the usage
//! line and exits 0; an unknown argument, a missing value or a value that
//! does not parse as the option's type exits 2. A mistyped flag therefore
//! fails loudly instead of silently running with the default.

use std::collections::BTreeMap;

/// What an option takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A bare `--name`.
    Flag,
    /// `--name N`, a non-negative integer.
    Usize,
    /// `--name X`, a floating-point number.
    F64,
    /// `--name VALUE`, any string.
    Str,
}

impl Arg {
    fn placeholder(self) -> &'static str {
        match self {
            Arg::Flag => "",
            Arg::Usize => " N",
            Arg::F64 => " X",
            Arg::Str => " VALUE",
        }
    }

    fn accepts(self, value: &str) -> bool {
        match self {
            Arg::Flag | Arg::Str => true,
            Arg::Usize => value.parse::<usize>().is_ok(),
            Arg::F64 => value.parse::<f64>().is_ok(),
        }
    }
}

/// Why parsing stopped short of a command line to run with.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliStop {
    /// `--help` was given.
    Help,
    /// The command line is invalid; the message says why.
    Invalid(String),
}

/// A parsed command line: the options given, each checked against its
/// declared [`Arg`].
#[derive(Debug, Clone, Default)]
pub struct Cli {
    given: BTreeMap<String, String>,
}

/// The usage line for `bin` accepting `opts`.
fn usage(bin: &str, opts: &[(&str, Arg)]) -> String {
    let mut line = format!("usage: {bin}");
    for (name, arg) in opts {
        line.push_str(&format!(" [--{name}{}]", arg.placeholder()));
    }
    line
}

impl Cli {
    /// Parses the process arguments against `opts`. Prints the usage and
    /// exits 0 on `--help`; prints the error and the usage and exits 2 on
    /// an invalid command line.
    pub fn parse(bin: &str, opts: &[(&str, Arg)]) -> Cli {
        match Cli::parse_from(opts, std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(CliStop::Help) => {
                println!("{}", usage(bin, opts));
                std::process::exit(0);
            }
            Err(CliStop::Invalid(why)) => {
                eprintln!("{bin}: {why}\n{}", usage(bin, opts));
                std::process::exit(2);
            }
        }
    }

    /// Parses `args` (without the program name) against `opts`.
    fn parse_from(
        opts: &[(&str, Arg)],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, CliStop> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(token) = it.next() {
            if token == "--help" {
                return Err(CliStop::Help);
            }
            let Some(&(name, arg)) = token
                .strip_prefix("--")
                .and_then(|n| opts.iter().find(|(o, _)| *o == n))
            else {
                return Err(CliStop::Invalid(format!("unknown argument `{token}`")));
            };
            let value = match arg {
                Arg::Flag => String::new(),
                _ => it
                    .next()
                    .ok_or_else(|| CliStop::Invalid(format!("`{token}` needs a value")))?,
            };
            if !arg.accepts(&value) {
                return Err(CliStop::Invalid(format!(
                    "`{token}` needs{}, got `{value}`",
                    arg.placeholder()
                )));
            }
            cli.given.insert(name.to_string(), value);
        }
        Ok(cli)
    }

    /// Whether the bare flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The value of `--name`, or `default`.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.given
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The value of `--name`, or `default`.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.given
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The value of `--name`, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.given.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTS: &[(&str, Arg)] = &[
        ("scale", Arg::F64),
        ("secs", Arg::Usize),
        ("timeline", Arg::Flag),
        ("only", Arg::Str),
    ];

    fn parse(args: &[&str]) -> Result<Cli, CliStop> {
        Cli::parse_from(OPTS, args.iter().map(|a| a.to_string()))
    }

    fn invalid(args: &[&str]) -> bool {
        matches!(parse(args), Err(CliStop::Invalid(_)))
    }

    #[test]
    fn known_options_parse_and_missing_ones_default() {
        let cli =
            parse(&["--scale", "0.5", "--timeline", "--only", "x", "--secs", "7"]).expect("valid");
        assert_eq!(cli.f64("scale", 0.1), 0.5);
        assert_eq!(cli.usize("secs", 3), 7);
        assert!(cli.flag("timeline"));
        assert_eq!(cli.str("only"), Some("x"));
        let cli = parse(&[]).expect("valid");
        assert_eq!(cli.f64("scale", 0.1), 0.1);
        assert_eq!(cli.usize("secs", 3), 3);
        assert!(!cli.flag("timeline"));
        assert_eq!(cli.str("only"), None);
    }

    #[test]
    fn help_stops_parsing() {
        assert_eq!(parse(&["--help"]).err(), Some(CliStop::Help));
        assert_eq!(parse(&["--secs", "2", "--help"]).err(), Some(CliStop::Help));
    }

    #[test]
    fn mistakes_are_rejected() {
        assert!(invalid(&["--scle", "0.5"]), "unknown flag");
        assert!(invalid(&["scale"]), "bare word");
        assert!(invalid(&["--scale"]), "missing value");
        assert!(invalid(&["--scale", "abc"]), "unparsable float");
        assert!(invalid(&["--secs", "1.5"]), "unparsable integer");
        assert!(invalid(&["--secs", "-1"]), "negative integer");
        assert!(invalid(&["--scale=0.5"]), "`=` form is not accepted");
    }

    #[test]
    fn no_options_rejects_every_argument() {
        assert!(Cli::parse_from(&[], std::iter::empty()).is_ok());
        for arg in ["--timeline", "--scale", "x"] {
            let r = Cli::parse_from(&[], std::iter::once(arg.to_string()));
            assert!(matches!(r, Err(CliStop::Invalid(_))), "{arg}");
        }
    }

    #[test]
    fn usage_lists_every_option() {
        assert_eq!(
            usage("fig", OPTS),
            "usage: fig [--scale X] [--secs N] [--timeline] [--only VALUE]"
        );
        assert_eq!(usage("ablation", &[]), "usage: ablation");
    }
}
