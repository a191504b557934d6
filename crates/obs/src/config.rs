//! Shared scenario/run configuration loading: the TOML-subset document
//! parser behind the scenario DSL, the duration parser, and [`Args`], the
//! one command-line parser of `gdb-bench`, `nemesis` and `gdb-shell`.
//!
//! The parser covers exactly the subset scenario files need — `[table]`
//! and `[[array-of-tables]]` headers, `key = value` entries with quoted
//! strings, integers, and booleans, `#` comments — with line numbers kept
//! for error reporting. Values stay typed but simple ([`ConfValue`]);
//! schema interpretation (known tables/keys, fault names) belongs to the
//! consumer, not the parser.

use gdb_simnet::SimDuration;

/// One parsed scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfValue {
    Str(String),
    Int(i64),
    Bool(bool),
}

impl ConfValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            ConfValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ConfValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// How the value reads back in a message ("\"3s\"", "42", "true").
    pub fn render(&self) -> String {
        match self {
            ConfValue::Str(s) => format!("{s:?}"),
            ConfValue::Int(v) => v.to_string(),
            ConfValue::Bool(b) => b.to_string(),
        }
    }
}

/// One `[name]` or `[[name]]` table with its entries.
#[derive(Debug, Clone)]
pub struct ConfTable {
    pub name: String,
    /// True for `[[name]]` (array-of-tables) headers.
    pub array: bool,
    /// 1-based line of the header.
    pub line: usize,
    /// `(key, value, 1-based line)` in file order.
    pub entries: Vec<(String, ConfValue, usize)>,
}

impl ConfTable {
    pub fn get(&self, key: &str) -> Option<&ConfValue> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v)
    }

    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(ConfValue::as_str)
    }

    pub fn int_of(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(ConfValue::as_int)
    }

    pub fn bool_of(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(ConfValue::as_bool)
    }

    /// A duration entry: a quoted string (`"500ms"`, `"3s"`) or a bare
    /// integer in seconds.
    pub fn duration_of(&self, key: &str) -> Option<SimDuration> {
        match self.get(key)? {
            ConfValue::Str(s) => parse_duration(s),
            ConfValue::Int(v) => duration_from(u64::try_from(*v).ok()?, NANOS_PER_SEC),
            _ => None,
        }
    }
}

/// A parsed document: tables in file order.
#[derive(Debug, Clone, Default)]
pub struct ConfDoc {
    pub tables: Vec<ConfTable>,
}

impl ConfDoc {
    /// The first (non-array) table of `name`, if any.
    pub fn table(&self, name: &str) -> Option<&ConfTable> {
        self.tables.iter().find(|t| t.name == name && !t.array)
    }

    /// Every `[[name]]` table, in file order.
    pub fn tables_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ConfTable> {
        self.tables
            .iter()
            .filter(move |t| t.name == name && t.array)
    }

    /// Parse a TOML-subset document. Errors carry the offending line.
    pub fn parse(text: &str) -> Result<ConfDoc, String> {
        let mut doc = ConfDoc::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let name = rest
                    .strip_suffix("]]")
                    .ok_or_else(|| format!("line {lineno}: unterminated [[table]] header"))?
                    .trim();
                check_name(name, lineno)?;
                doc.tables.push(ConfTable {
                    name: name.to_string(),
                    array: true,
                    line: lineno,
                    entries: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated [table] header"))?
                    .trim();
                check_name(name, lineno)?;
                if doc.tables.iter().any(|t| t.name == name && !t.array) {
                    return Err(format!("line {lineno}: duplicate table [{name}]"));
                }
                doc.tables.push(ConfTable {
                    name: name.to_string(),
                    array: false,
                    line: lineno,
                    entries: Vec::new(),
                });
            } else {
                let (key, value) = line
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
                let key = key.trim();
                check_name(key, lineno)?;
                let value = parse_value(value.trim(), lineno)?;
                let table = doc
                    .tables
                    .last_mut()
                    .ok_or_else(|| format!("line {lineno}: key {key:?} outside any [table]"))?;
                if table.entries.iter().any(|(k, _, _)| k == key) {
                    return Err(format!(
                        "line {lineno}: duplicate key {key:?} in [{}]",
                        table.name
                    ));
                }
                table.entries.push((key.to_string(), value, lineno));
            }
        }
        Ok(doc)
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn check_name(name: &str, lineno: usize) -> Result<(), String> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if ok {
        Ok(())
    } else {
        Err(format!("line {lineno}: bad name {name:?}"))
    }
}

fn parse_value(v: &str, lineno: usize) -> Result<ConfValue, String> {
    if let Some(rest) = v.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(format!(
                "line {lineno}: escapes and embedded quotes are not supported"
            ));
        }
        return Ok(ConfValue::Str(inner.to_string()));
    }
    match v {
        "true" => return Ok(ConfValue::Bool(true)),
        "false" => return Ok(ConfValue::Bool(false)),
        _ => {}
    }
    v.parse::<i64>()
        .map(ConfValue::Int)
        .map_err(|_| format!("line {lineno}: unrecognized value {v:?}"))
}

const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `count` units of `unit_nanos` each; `None` when that overflows the
/// 64-bit nanosecond clock (a typed-in value must not wrap to a short
/// duration).
fn duration_from(count: u64, unit_nanos: u64) -> Option<SimDuration> {
    count.checked_mul(unit_nanos).map(SimDuration::from_nanos)
}

/// Parse a human duration: `"250ms"`, `"3s"`, or a bare integer in
/// seconds. (Shared by the nemesis CLI, the shell, and scenario files.)
pub fn parse_duration(s: &str) -> Option<SimDuration> {
    let (count, unit_nanos) = match (s.strip_suffix("ms"), s.strip_suffix('s')) {
        (Some(ms), _) => (ms, NANOS_PER_MILLI),
        (None, Some(secs)) => (secs, NANOS_PER_SEC),
        (None, None) => (s, NANOS_PER_SEC),
    };
    duration_from(count.parse().ok()?, unit_nanos)
}

/// A command line read against the flags one program takes: value flags
/// (`--seed 7`), switches (`--overlap`) and a positional remainder. The
/// first word that is not a flag starts the remainder, which is kept
/// verbatim, flags and all (`gdb-shell bench tpcc --json x` runs the
/// command `bench tpcc --json x`). Every CLI in the workspace parses
/// with it, so a typo is an error, never a silent default.
#[derive(Debug, Default)]
pub struct Args {
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
    /// The words from the first positional one on.
    pub rest: Vec<String>,
}

impl Args {
    /// Parse `args` (without the program name). An unknown or repeated
    /// flag, and a value flag whose value is missing or is itself a
    /// `--flag`, are errors naming the flag.
    pub fn parse(args: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut words = args.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                out.rest.push(word.clone());
                out.rest.extend(words.cloned());
                break;
            }
            if out.flags.iter().any(|(f, _)| f == word) {
                return Err(format!("{word} given twice"));
            }
            let value = if value_flags.contains(&word.as_str()) {
                match words.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => return Err(format!("{word} needs a value")),
                }
            } else if switches.contains(&word.as_str()) {
                None
            } else {
                return Err(format!("unknown flag {word}"));
            };
            out.flags.push((word.clone(), value));
        }
        Ok(out)
    }

    /// The value given for `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` read by `read`: `None` when the flag is
    /// absent, an error naming the flag when `read` rejects its value.
    pub fn read<T>(
        &self,
        flag: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => read(v)
                .map(Some)
                .ok_or_else(|| format!("bad value {v:?} for {flag}")),
        }
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
# a scenario
[scenario]
name = "migrate-under-fire"   # trailing comment
seed = 7
strict = true

[workload]
warmup = "500ms"
duration = "3s"
terminals = 8

[[fault]]
at = "300ms"
kind = "crash-primary"
shard = 0

[[fault]]
at = "600ms"
kind = "restart-primary"
shard = 0
"#;

    #[test]
    fn parses_tables_arrays_and_values() {
        let doc = ConfDoc::parse(DOC).unwrap();
        let scn = doc.table("scenario").unwrap();
        assert_eq!(scn.str_of("name"), Some("migrate-under-fire"));
        assert_eq!(scn.int_of("seed"), Some(7));
        assert_eq!(scn.bool_of("strict"), Some(true));
        let wl = doc.table("workload").unwrap();
        assert_eq!(
            wl.duration_of("warmup"),
            Some(SimDuration::from_millis(500))
        );
        assert_eq!(wl.duration_of("duration"), Some(SimDuration::from_secs(3)));
        let faults: Vec<_> = doc.tables_named("fault").collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].str_of("kind"), Some("crash-primary"));
        assert_eq!(
            faults[1].duration_of("at"),
            Some(SimDuration::from_millis(600))
        );
        assert!(doc.table("fault").is_none(), "array tables are not plain");
    }

    #[test]
    fn rejects_malformed_documents() {
        for (bad, what) in [
            ("key = 1", "outside any"),
            ("[t]\nkey 1", "key = value"),
            ("[t]\nkey = \"open", "unterminated string"),
            ("[t]\nkey = 1.5", "unrecognized value"),
            ("[t]\nkey = \"a\\\"b\"", "not supported"),
            ("[t]\n[t]", "duplicate table"),
            ("[t]\nk = 1\nk = 2", "duplicate key"),
            ("[bad name]", "bad name"),
            ("[[t]\nk = 1", "unterminated"),
        ] {
            let err = ConfDoc::parse(bad).unwrap_err();
            assert!(err.contains(what), "{bad:?}: {err}");
        }
    }

    #[test]
    fn duration_and_flag_helpers() {
        assert_eq!(parse_duration("250ms"), Some(SimDuration::from_millis(250)));
        assert_eq!(parse_duration("3s"), Some(SimDuration::from_secs(3)));
        assert_eq!(parse_duration("4"), Some(SimDuration::from_secs(4)));
        assert_eq!(parse_duration("fast"), None);
        // 2^64 ns is ~18 446 744 073.7 s: the largest whole value of each
        // form parses, one more is rejected instead of wrapping.
        assert_eq!(
            parse_duration("18446744073s"),
            Some(SimDuration::from_secs(18_446_744_073))
        );
        assert_eq!(parse_duration("18446744074s"), None);
        assert_eq!(parse_duration("18446744074"), None);
        assert_eq!(
            parse_duration("18446744073709ms"),
            Some(SimDuration::from_millis(18_446_744_073_709))
        );
        assert_eq!(parse_duration("18446744073710ms"), None);
        let doc = ConfDoc::parse("[w]\nok = 18446744073\nbig = 18446744074\nneg = -1").unwrap();
        let w = doc.table("w").unwrap();
        assert_eq!(
            w.duration_of("ok"),
            Some(SimDuration::from_secs(18_446_744_073))
        );
        assert_eq!(w.duration_of("big"), None);
        assert_eq!(w.duration_of("neg"), None);

        // The command-line parser: value flags, switches, the remainder.
        let words =
            |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        let parse = |line| Args::parse(&words(line), &["--seed", "--json"], &["--overlap"]);
        let a = parse("--seed 7 --overlap sql SELECT 1 --json x").unwrap();
        assert_eq!(a.value("--seed"), Some("7"));
        assert_eq!(a.read("--seed", |v| v.parse::<u64>().ok()), Ok(Some(7)));
        assert!(a.switch("--overlap"));
        // The remainder is verbatim: its `--json` is not the program's.
        assert_eq!(a.value("--json"), None);
        assert_eq!(a.rest, words("sql SELECT 1 --json x"));
        assert_eq!(a.read("--json", |_| Some(())), Ok(None));

        for (line, err) in [
            ("--json --overlap", "--json needs a value"),
            ("--seed", "--seed needs a value"),
            ("--bogus", "unknown flag --bogus"),
            ("--overlap --overlap", "--overlap given twice"),
            ("--seed 1 --seed 2", "--seed given twice"),
        ] {
            assert_eq!(parse(line).unwrap_err(), err, "{line}");
        }
        let a = parse("--seed x").unwrap();
        assert_eq!(
            a.read("--seed", |v| v.parse::<u64>().ok()),
            Err("bad value \"x\" for --seed".to_string())
        );
    }
}
