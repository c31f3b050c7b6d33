//! `README.md` documents only flags that exist: every `--flag` named in a
//! binary's `## … (`<bin>`)` section must appear in the usage line the
//! binary prints when it is given an unknown flag.

use std::collections::BTreeSet;
use std::process::Command;

/// The crate's binaries, each of which needs a README section.
const BINARIES: &[(&str, &str)] = &[
    ("repro", env!("CARGO_BIN_EXE_repro")),
    ("simbench", env!("CARGO_BIN_EXE_simbench")),
    ("schedbench", env!("CARGO_BIN_EXE_schedbench")),
    ("reprobench", env!("CARGO_BIN_EXE_reprobench")),
    ("faultbench", env!("CARGO_BIN_EXE_faultbench")),
    ("streambench", env!("CARGO_BIN_EXE_streambench")),
    ("dagbench", env!("CARGO_BIN_EXE_dagbench")),
    ("racebench", env!("CARGO_BIN_EXE_racebench")),
];

/// The `--flag` tokens of `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    text.match_indices("--")
        .filter_map(|(i, _)| {
            let name = &text[i + 2..];
            let len = name
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(name.len());
            (len > 0).then(|| &text[i..i + 2 + len])
        })
        .collect()
}

/// The usage line `exe` prints for an unknown flag.
fn usage(exe: &str) -> String {
    let out = Command::new(exe)
        .arg("--no-such-flag")
        .output()
        .unwrap_or_else(|e| panic!("running {exe}: {e}"));
    assert_eq!(out.status.code(), Some(2), "{exe} accepted an unknown flag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find(|l| l.starts_with("usage:"));
    line.unwrap_or_else(|| panic!("{exe} printed no usage line: {stderr}"))
        .to_string()
}

#[test]
fn readme_flags_exist() {
    let readme = include_str!("../README.md");
    let mut documented = BTreeSet::new();
    let mut errors = Vec::new();
    for section in readme.split("\n## ").skip(1) {
        let (heading, body) = section.split_once('\n').unwrap_or((section, ""));
        let Some(bin) = heading
            .rsplit_once("(`")
            .and_then(|(_, rest)| rest.strip_suffix("`)"))
        else {
            continue;
        };
        let Some(&(_, exe)) = BINARIES.iter().find(|(name, _)| *name == bin) else {
            errors.push(format!("section for unknown binary {bin}"));
            continue;
        };
        documented.insert(bin);
        let usage = usage(exe);
        let known = flags(&usage);
        let missing: Vec<_> = flags(body).difference(&known).copied().collect();
        if !missing.is_empty() {
            errors.push(format!("{bin} documents {missing:?}; {usage}"));
        }
    }
    for (name, _) in BINARIES {
        if !documented.contains(name) {
            errors.push(format!("no section for {name}"));
        }
    }
    assert!(errors.is_empty(), "README.md:\n{}", errors.join("\n"));
}
