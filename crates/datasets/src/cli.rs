//! The `--name value` flag parser the workspace's binaries share (it lives
//! here, beside [`resolve_seed`](crate::resolve_seed), because every binary
//! already depends on this crate). A binary's flags are the ones its help
//! text documents; anything else is an error, so a removed or misspelt
//! flag can never be swallowed as a key that eats its neighbour.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h`: not a failure — the caller prints its help text.
    Help,
    /// A `--name` in neither the switch nor the option table.
    UnknownOption(String),
    /// A bare word where a `--name` was expected.
    UnexpectedArgument(String),
    /// A value-taking option at the end of the line.
    MissingValue(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::UnknownOption(name) => write!(f, "unknown option --{name} (try --help)"),
            CliError::UnexpectedArgument(arg) => {
                write!(f, "unexpected argument '{arg}' (try --help)")
            }
            CliError::MissingValue(name) => write!(f, "missing value for --{name}"),
        }
    }
}

/// Parses `args` (without the program name). `switches` take no value and
/// map to `"1"`; `options` consume the next argument verbatim. Both tables
/// hold names as typed, without the leading `--`; the returned keys have
/// `-` replaced by `_`.
pub fn parse(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    options: &[&str],
) -> Result<HashMap<String, String>, CliError> {
    let mut out = HashMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Help);
        }
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::UnexpectedArgument(arg));
        };
        let value = if switches.contains(&name) {
            "1".to_string()
        } else if options.contains(&name) {
            args.next()
                .ok_or_else(|| CliError::MissingValue(name.to_string()))?
        } else {
            return Err(CliError::UnknownOption(name.to_string()));
        };
        out.insert(name.replace('-', "_"), value);
    }
    Ok(out)
}

/// The `(switches, options)` a help text documents: every line of the form
/// `  --name <value>  …` is an option, `  --name  …` a switch. Continuation
/// lines are indented deeper and never match.
pub fn flags_in_help(help: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut switches, mut options) = (Vec::new(), Vec::new());
    for line in help.lines() {
        let Some(rest) = line.strip_prefix("  --") else {
            continue;
        };
        let (name, after) = rest.split_once(' ').unwrap_or((rest, ""));
        if after.trim_start().starts_with('<') {
            options.push(name);
        } else {
            switches.push(name);
        }
    }
    (switches, options)
}

/// [`parse`] over the process arguments with the flags `help` documents,
/// for a binary's `main`: prints `help` and exits 0 on `--help`, prints the
/// error and exits 2 otherwise.
pub fn parse_or_exit(help: &str) -> HashMap<String, String> {
    let (switches, options) = flags_in_help(help);
    match parse(std::env::args().skip(1), &switches, &options) {
        Ok(args) => args,
        Err(CliError::Help) => {
            println!("{help}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The parsed value of `key`, or `default` when the flag was not given.
/// Exits 2 on a value that does not parse as `T`.
pub fn get<T: FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    match args.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: '{v}'");
            std::process::exit(2);
        }),
        None => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<HashMap<String, String>, CliError> {
        parse(
            line.split_whitespace().map(String::from),
            &["verify", "online-resume"],
            &["load", "queue-cap"],
        )
    }

    #[test]
    fn known_flags_parse_with_underscored_keys() {
        let args = run("--load m.stgc --online-resume --queue-cap 7").unwrap();
        assert_eq!(args["load"], "m.stgc");
        assert_eq!(args["online_resume"], "1");
        assert_eq!(get(&args, "queue_cap", 0usize), 7);
        assert_eq!(get(&args, "absent", 3usize), 3);
    }

    #[test]
    fn unknown_flag_is_rejected_not_swallowed() {
        // Must not parse as the option `quantize` with value "--verify".
        let err = run("--quantize --verify").unwrap_err();
        assert_eq!(err, CliError::UnknownOption("quantize".into()));
        assert_eq!(err.to_string(), "unknown option --quantize (try --help)");
    }

    #[test]
    fn switch_never_eats_its_neighbour() {
        let args = run("--verify --load x").unwrap();
        assert_eq!(args["verify"], "1");
        assert_eq!(args["load"], "x");
        assert_eq!(
            run("--verify x").unwrap_err(),
            CliError::UnexpectedArgument("x".into())
        );
    }

    #[test]
    fn option_without_value_is_reported() {
        assert_eq!(
            run("--verify --load").unwrap_err(),
            CliError::MissingValue("load".into())
        );
    }

    #[test]
    fn flag_tables_come_from_the_help_text() {
        let help = "tool — does things (see --verify below)

Options:
  --load <path>           checkpoint to serve, e.g.
                          --load model.stgc
  --model <tgcn|gconvgru> cell architecture
  --verify                check bitwise
  --help                  this text";
        let (switches, options) = flags_in_help(help);
        assert_eq!(switches, ["verify", "help"]);
        assert_eq!(options, ["load", "model"]);
    }

    #[test]
    fn help_passes_through() {
        assert_eq!(run("--help").unwrap_err(), CliError::Help);
        assert_eq!(run("--load x -h --bogus").unwrap_err(), CliError::Help);
    }
}
