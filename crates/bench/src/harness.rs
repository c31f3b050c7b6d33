//! The plumbing every bench binary shares, so each binary keeps only its
//! scenarios, row formats and gates:
//!
//! * **Flags** — one declared parser. Every binary takes [`OUT`]; most
//!   take [`SEED`]. An unknown flag or an unparsable value prints the
//!   error and a usage line generated from the declarations, then exits
//!   with code 2 ([`parse_or_exit`]).
//! * **Pools** — [`with_threads`] runs a closure on a forced rayon worker
//!   count, then puts the pool back to automatic (`RAYON_NUM_THREADS` or
//!   the core count). The vendored rayon cannot report a forced count,
//!   so automatic is the only state to return to.
//! * **Child points** — peak RSS (`VmHWM`) is monotonic per process, so
//!   every configuration whose RSS is reported runs in its own process:
//!   [`spawn_self`] re-runs the binary as `<bin> child …` and reads back
//!   the `key=value` lines the child printed with [`emit`].
//! * **Report** — [`Report`] renders the layout every `BENCH_*.json`
//!   uses: header fields, then named sections of pre-formatted rows.

use std::collections::HashMap;
use std::fmt::{Debug, Display};
use std::process::{Command, Stdio};
use std::str::FromStr;

/// One declared command-line flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Spelling on the command line, e.g. `--seed`.
    pub name: &'static str,
    /// Value placeholder for the usage line; `None` marks a switch.
    pub value: Option<&'static str>,
}

impl Flag {
    /// A flag that takes one value.
    pub const fn value(name: &'static str, placeholder: &'static str) -> Self {
        let value = Some(placeholder);
        Self { name, value }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str) -> Self {
        Self { name, value: None }
    }
}

/// Output path; every binary has one.
pub const OUT: Flag = Flag::value("--out", "FILE");
/// Base RNG seed.
pub const SEED: Flag = Flag::value("--seed", "N");
/// First argument of a child process's command line.
pub const CHILD: &str = "child";

/// `usage: <bin> [--flag VALUE] [--switch] …`
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: {bin}");
    for f in flags {
        match f.value {
            Some(v) => line += &format!(" [{} {v}]", f.name),
            None => line += &format!(" [{}]", f.name),
        }
    }
    line
}

/// The declared flags a command line gave, with their raw values.
#[derive(Debug)]
pub struct Args(HashMap<&'static str, Option<String>>);

impl Args {
    /// Matches `args` against `flags`. An unknown flag, a stray
    /// positional or a missing value is an error naming the token; a
    /// repeated flag keeps its last value.
    pub fn parse(flags: &[Flag], args: &[String]) -> Result<Self, String> {
        let mut given = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match flag.value {
                Some(_) => Some(it.next().ok_or(format!("{arg} needs a value"))?.clone()),
                None => None,
            };
            given.insert(flag.name, value);
        }
        Ok(Self(given))
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value of `name` parsed as `T`, or `None` when absent.
    pub fn opt<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(Some(raw)) = self.0.get(name) else {
            return Ok(None);
        };
        let parsed = raw
            .parse()
            .map_err(|e| format!("bad {name} '{raw}': {e}"))?;
        Ok(Some(parsed))
    }

    /// The value of `name` parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The comma-separated value of `name`, or `default` when absent.
    pub fn list<T: FromStr<Err: Display>>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        let Some(raw) = self.opt::<String>(name)? else {
            return Ok(default);
        };
        raw.split(',')
            .map(|item| {
                item.trim()
                    .parse()
                    .map_err(|e| format!("bad {name} item '{item}': {e}"))
            })
            .collect()
    }
}

/// Parses `args` against `flags` and builds the binary's options with
/// `build`. Any error is printed with the usage line and the process
/// exits with code 2.
pub fn parse_or_exit<T>(
    bin: &str,
    flags: &[Flag],
    args: &[String],
    build: impl FnOnce(&Args) -> Result<T, String>,
) -> T {
    Args::parse(flags, args)
        .and_then(|a| build(&a))
        .unwrap_or_else(|e| {
            eprintln!("{bin}: {e}\n{}", usage(bin, flags));
            std::process::exit(2)
        })
}

/// Runs `f` with the global rayon pool forced to `n` workers, then puts
/// the pool back to automatic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let set = |n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
    };
    set(n).expect("the vendored rayon accepts repeated global builds");
    let out = f();
    set(0).expect("the vendored rayon accepts repeated global builds");
    out
}

/// The arguments after [`CHILD`] when `argv` starts child mode.
pub fn child_args(argv: &[String]) -> Option<&[String]> {
    argv.split_first()
        .and_then(|(first, rest)| (first == CHILD).then_some(rest))
}

/// Prints one `key=value` line of a child's report.
pub fn emit(key: &str, value: impl Display) {
    println!("{key}={value}");
}

/// The `key=value` lines a child printed with [`emit`].
#[derive(Debug)]
pub struct ChildReport(HashMap<String, String>);

impl ChildReport {
    /// Collects every `key=value` line of `stdout`; other lines are
    /// ignored, a repeated key keeps its last value.
    pub fn parse(stdout: &str) -> Self {
        let pairs = stdout.lines().filter_map(|l| l.split_once('='));
        Self(pairs.map(|(k, v)| (k.to_string(), v.to_string())).collect())
    }

    /// The value of `key` parsed as `T`; a missing key is an error.
    pub fn get<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        let raw = self
            .0
            .get(key)
            .ok_or(format!("child report has no {key}"))?;
        raw.parse()
            .map_err(|e| format!("child report {key}='{raw}': {e}"))
    }

    /// Like [`get`](Self::get), with `null` read as `None`.
    pub fn opt<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get::<String>(key)?.as_str() {
            "null" => Ok(None),
            _ => self.get(key).map(Some),
        }
    }
}

/// Re-runs this binary as `<bin> child <args…>` and returns what the
/// child emitted. The child's stderr passes through; a failed child is
/// an error.
pub fn spawn_self(args: &[String]) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own binary path: {e}"))?;
    let mut command = Command::new(exe);
    command.arg(CHILD).args(args).stderr(Stdio::inherit());
    let out = command
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed with {}", out.status));
    }
    Ok(ChildReport::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// Full round-trip float (`{:?}`), so equal values serialize to equal
/// bytes.
pub fn f64_json(x: f64) -> String {
    format!("{x:?}")
}

/// `{:?}` of the value (round-trip for floats), or `null`.
pub fn opt_json<T: Debug>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:?}"))
}

/// Host core count, as report headers record it.
pub fn machine_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `BENCH_*.json` document: `"bench"` first, then header fields and
/// named sections in insertion order, one per line at two-space indent.
/// A section is an array of pre-formatted rows, one per line at
/// four-space indent.
#[derive(Debug, Clone)]
pub struct Report(Vec<(&'static str, String)>);

impl Report {
    /// A report whose `"bench"` field is `name`.
    pub fn new(name: &str) -> Self {
        Self(vec![("bench", format!("\"{name}\""))])
    }

    /// A header field holding pre-formatted JSON (may span lines).
    pub fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// A header field holding a JSON string.
    pub fn text(self, key: &'static str, value: &str) -> Self {
        self.field(key, format!("\"{value}\""))
    }

    /// A named array of pre-formatted rows.
    pub fn section(self, key: &'static str, rows: impl IntoIterator<Item = String>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
        let end = if rows.is_empty() { "" } else { "\n" };
        self.field(key, format!("[\n{}{end}  ]", rows.join(",\n")))
    }

    /// The document text.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Writes the document to `path`, prints it to stdout and this
    /// process's peak RSS to stderr.
    pub fn write(&self, path: &str) {
        let json = self.render();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        let rss = crate::rss::peak_rss_kb().map_or_else(|| "unknown".into(), |kb| kb.to_string());
        eprintln!("wrote {path} (peak RSS {rss} kB)");
        print!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[OUT, SEED, Flag::switch("--smoke")];

    fn parse(s: &str) -> Result<Args, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(FLAGS, &args)
    }

    #[test]
    fn report_reproduces_committed_skeleton() {
        let json = Report::new("racing")
            .field("seed", 42)
            .field("grid", "{\"vms\": 32, \"cloudlets\": 256}")
            .text("note", "wall rows are stripped before CI diffs")
            .section(
                "points",
                [
                    "{\"tier\": \"grid\"}".into(),
                    "{\"tier\": \"headline\"}".into(),
                ],
            )
            .section(
                "wall",
                ["{\"tier\": \"headline\", \"wall_ms\": 3.5}".into()],
            )
            .render();
        let expected = r#"{
  "bench": "racing",
  "seed": 42,
  "grid": {"vms": 32, "cloudlets": 256},
  "note": "wall rows are stripped before CI diffs",
  "points": [
    {"tier": "grid"},
    {"tier": "headline"}
  ],
  "wall": [
    {"tier": "headline", "wall_ms": 3.5}
  ]
}
"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn report_multi_line_header_value_and_empty_section() {
        let json = Report::new("repro")
            .field("end_to_end", "{\n    \"speedup\": 2.50\n  }")
            .section("points", Vec::new())
            .render();
        let expected =
            "{\n  \"bench\": \"repro\",\n  \"end_to_end\": {\n    \"speedup\": 2.50\n  },\n  \
                        \"points\": [\n  ]\n}\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn json_scalars() {
        assert_eq!(f64_json(1.0), "1.0");
        assert_eq!(opt_json(Some(0.1)), "0.1");
        assert_eq!(opt_json::<f64>(None), "null");
        assert_eq!(opt_json(Some(4_568u64)), "4568");
    }

    #[test]
    fn unknown_flags_and_bad_values_are_named() {
        assert!(parse("--vms 10").unwrap_err().contains("--vms"));
        assert!(parse("--out").unwrap_err().contains("--out"));
        let err = parse("--seed abc")
            .unwrap()
            .get("--seed", 42u64)
            .unwrap_err();
        assert!(err.contains("--seed") && err.contains("abc"), "{err}");
        assert_eq!(
            usage("demo", FLAGS),
            "usage: demo [--out FILE] [--seed N] [--smoke]"
        );
    }

    #[test]
    fn switch_takes_no_value() {
        let a = parse("--smoke --seed 7").unwrap();
        assert!(a.switch("--smoke"));
        assert_eq!(a.get("--seed", 42u64), Ok(7));
        assert!(parse("--smoke 5").unwrap_err().contains('5'));
    }

    #[test]
    fn defaults_hold_when_absent() {
        let a = parse("").unwrap();
        assert!(!a.switch("--smoke"));
        assert_eq!(a.get("--seed", 42u64), Ok(42));
        assert_eq!(a.get("--out", "X.json".to_string()), Ok("X.json".into()));
        assert_eq!(a.opt::<f64>("--seed"), Ok(None));
        assert_eq!(a.list("--seed", vec![1usize, 4]), Ok(vec![1, 4]));
    }

    #[test]
    fn list_values_parse_each_item() {
        assert_eq!(
            parse("--seed 1,4").unwrap().list("--seed", vec![]),
            Ok(vec![1usize, 4])
        );
        assert!(parse("--seed 1,x")
            .unwrap()
            .list::<usize>("--seed", vec![])
            .is_err());
    }

    #[test]
    fn child_report_missing_key_is_an_error() {
        let r = ChildReport::parse("noise\nwall_ms=12.5\npeak_rss_kb=null\nevents=7\n");
        assert_eq!(r.get::<f64>("wall_ms"), Ok(12.5));
        assert_eq!(r.get::<u64>("events"), Ok(7));
        assert_eq!(r.opt::<u64>("peak_rss_kb"), Ok(None));
        assert!(r.get::<f64>("finished").unwrap_err().contains("finished"));
        assert!(r.get::<u64>("wall_ms").is_err());
    }

    #[test]
    fn with_threads_restores_the_pool() {
        let before = rayon::current_num_threads();
        assert_eq!(with_threads(4, rayon::current_num_threads), 4);
        assert_eq!(rayon::current_num_threads(), before);
    }
}
