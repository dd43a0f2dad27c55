//! Minimal command-line argument handling for the `bce` tool: positional
//! arguments plus `--flag` and `--key value` options, with typed accessors
//! and unknown-option detection. A value option given twice is an error,
//! not a silent override. Hand-rolled to keep the workspace
//! dependency-free.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    pub(crate) positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// An argument-level error with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArgError(pub(crate) String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments. `value_opts` lists options that take a value;
    /// everything else starting with `--` is a boolean flag.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        value_opts: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_opts.contains(&name) {
                    let v =
                        it.next().ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                    if args.options.insert(name.to_string(), v).is_some() {
                        return Err(ArgError(format!("--{name} given more than once")));
                    }
                } else {
                    args.flags.push(name.to_string());
                }
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    pub(crate) fn flag(&self, name: &str) -> bool {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags.iter().any(|f| f == name)
    }

    pub(crate) fn opt(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(name.to_string());
        self.options.get(name).map(String::as_str)
    }

    pub(crate) fn opt_parse<T: std::str::FromStr>(
        &self,
        name: &str,
    ) -> Result<Option<T>, ArgError> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => {
                v.parse().map(Some).map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}")))
            }
        }
    }

    pub(crate) fn opt_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.opt_parse(name)?.unwrap_or(default))
    }

    /// Error out on options/flags no accessor asked about (catches typos).
    pub(crate) fn reject_unknown(&self) -> Result<(), ArgError> {
        let seen = self.consumed.borrow();
        for f in &self.flags {
            if !seen.contains(f) {
                return Err(ArgError(format!("unknown option --{f}")));
            }
        }
        for k in self.options.keys() {
            if !seen.contains(k) {
                return Err(ArgError(format!("unknown option --{k}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from), &["days", "sched", "out"]).unwrap()
    }

    #[test]
    fn positional_and_options() {
        let a = parse("run file.xml --days 5 --timeline");
        assert_eq!(a.positional, vec!["run", "file.xml"]);
        assert_eq!(a.opt("days"), Some("5"));
        assert!(a.flag("timeline"));
        assert!(!a.flag("log"));
        assert_eq!(a.opt_or("days", 1.0).unwrap(), 5.0);
    }

    #[test]
    fn missing_value_is_error() {
        let e = Args::parse(["--days".to_string()], &["days"]).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
    }

    #[test]
    fn bad_parse_is_error() {
        let a = parse("--days abc");
        assert!(a.opt_parse::<f64>("days").is_err());
    }

    #[test]
    fn unknown_rejected() {
        let a = parse("run --days 5 --bogus");
        let _ = a.opt("days");
        assert!(a.reject_unknown().is_err());
        let b = parse("run --days 5 --timeline");
        let _ = b.opt("days");
        assert!(b.flag("timeline"));
        assert!(b.reject_unknown().is_ok());
    }

    #[test]
    fn repeated_option_is_error() {
        let e =
            Args::parse(["--sched", "a", "--sched", "b"].iter().map(|s| s.to_string()), &["sched"])
                .unwrap_err();
        assert_eq!(e, ArgError("--sched given more than once".into()));
    }
}
