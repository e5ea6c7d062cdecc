//! A minimal `--flag value` argument parser (no external dependencies).

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--switch` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options (`Some`) and `--switch`es (`None`), in
    /// command-line order.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse from an iterator of argument strings (excluding `argv[0]`).
    ///
    /// Rules: the first non-`--` token is the subcommand; later non-`--`
    /// tokens are positional; `--key value` pairs become options unless
    /// the next token is absent or itself a flag, in which case `--key`
    /// is a boolean switch.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err("bare '--' is not a valid flag".into());
                }
                let value = iter.next_if(|next| !next.starts_with("--"));
                out.flags.push((key.to_owned(), value));
            } else if out.command.is_empty() {
                out.command = tok;
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// String option by key (the last one, if given twice).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, v)| k == key && v.is_some())?.1.as_deref()
    }

    /// Option parsed to a type, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// `true` if `--key` appeared as a boolean switch.
    pub fn has_switch(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, v)| k == key && v.is_none())
    }

    /// Check every flag against the ones the command reads: `options`
    /// take a value, `switches` take none. The error names the first
    /// flag, in command-line order, that the command does not know or
    /// that is given in the wrong shape.
    pub fn check_flags(&self, options: &[&str], switches: &[&str]) -> Result<(), String> {
        for (key, value) in &self.flags {
            let key = key.as_str();
            let (is_option, is_switch) = (options.contains(&key), switches.contains(&key));
            match value {
                Some(_) if is_option => {}
                None if is_switch => {}
                Some(v) if is_switch => {
                    return Err(format!("--{key} takes no value, but was given '{v}'"))
                }
                None if is_option => return Err(format!("--{key} needs a value")),
                _ => {
                    return Err(format!(
                        "unknown flag --{key} for 'scholar {}' (try 'scholar help')",
                        self.command
                    ))
                }
            }
        }
        Ok(())
    }

    /// Positional argument by index, with a helpful error.
    pub fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what} argument"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_and_positionals() {
        let a = parse(&["rank", "corpus.jsonl", "extra"]);
        assert_eq!(a.command, "rank");
        assert_eq!(a.positional, vec!["corpus.jsonl", "extra"]);
        assert_eq!(a.positional(0, "corpus").unwrap(), "corpus.jsonl");
        assert!(a.positional(5, "nope").is_err());
    }

    #[test]
    fn options_and_switches() {
        let a = parse(&["rank", "c.jsonl", "--method", "qrank", "--top", "5", "--explain"]);
        assert_eq!(a.get("method"), Some("qrank"));
        assert_eq!(a.get_parsed::<usize>("top", 10).unwrap(), 5);
        assert!(a.has_switch("explain"));
        assert!(!a.has_switch("quiet"));
        assert_eq!(a.get_parsed::<usize>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn flag_followed_by_flag_is_switch() {
        let a = parse(&["x", "--verbose", "--top", "3"]);
        assert!(a.has_switch("verbose"));
        assert_eq!(a.get("top"), Some("3"));
    }

    #[test]
    fn bad_parse_value() {
        let a = parse(&["x", "--top", "many"]);
        assert!(a.get_parsed::<usize>("top", 1).is_err());
    }

    #[test]
    fn check_flags_names_the_unknown_or_misshapen_flag() {
        let check = |toks: &[&str]| parse(toks).check_flags(&["top"], &["json"]);
        assert!(check(&["rank", "c", "--top", "3", "--json"]).is_ok());
        let err = check(&["rank", "c", "--top", "3", "--metod", "twpr", "--also"]).unwrap_err();
        assert!(err.contains("--metod") && err.contains("'scholar rank'"), "{err}");
        assert!(check(&["rank", "--json", "c"]).unwrap_err().contains("--json takes no value"));
        assert!(check(&["rank", "c", "--top"]).unwrap_err().contains("--top needs a value"));
    }

    #[test]
    fn bare_double_dash_rejected() {
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }
}
