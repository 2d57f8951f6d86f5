//! The tape's bitwise reference: committed digests of what a run
//! computed, in `crates/exec/tests/tape_digests.txt`.
//!
//! One line per (suite, case, cost model, tier class, tile count):
//!
//! ```text
//! <suite> <case> <model> <tier class> <tiles> <digest>
//! ```
//!
//! The digest is FNV-1a over the output values' bits and the run's
//! `ExecStats` (`{:?}`), nothing else. The tier classes are `scalar` and
//! `x86-fma` (AVX2+FMA and AVX-512 share their rows: nothing folded
//! names the tier). A test records every run it makes and checks them
//! at once against the committed lines of the cases it ran: the scalar
//! rows always, the `x86-fma` rows only when one of its runs bound an
//! x86 FMA tier — under `SPTTN_MICROKERNELS=scalar`,
//! Miri and other targets they are skipped with a printed note. A
//! mismatch names the first committed line that differs; the failing
//! test prints every line it computed, prefixed `digest: `, so a change
//! meant to move bits regenerates its suite's lines from that output.
//!
//! Shared by the exec crate's suites, its unit tests and the facade's
//! suites (through `#[path]`), so it names no crate.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;

const FILE: &str = include_str!("../tape_digests.txt");
const FILE_NAME: &str = "crates/exec/tests/tape_digests.txt";

/// The runs one suite made, keyed by everything but the digest.
pub struct Digests {
    suite: &'static str,
    lines: Vec<(String, String)>,
    x86_fma: bool,
}

impl Digests {
    pub fn new(suite: &'static str) -> Self {
        Digests {
            suite,
            lines: Vec::new(),
            x86_fma: false,
        }
    }

    /// Record one run: `vals` are the output's values (a dense output's
    /// cells or a pattern-sharing output's entries), `scalar` whether
    /// the bound tape runs the scalar tier. Two runs under one key must
    /// agree bit for bit.
    pub fn record(
        &mut self,
        case: impl std::fmt::Display,
        model: &str,
        scalar: bool,
        tiles: usize,
        vals: &[f64],
        stats: &impl Debug,
    ) {
        let tier = if scalar { "scalar" } else { "x86-fma" };
        self.x86_fma |= !scalar;
        let key = format!("{} {case} {model} {tier} {tiles}", self.suite);
        let h = vals
            .iter()
            .fold(FNV_OFFSET, |h, v| fnv(h, &v.to_bits().to_le_bytes()));
        let digest = format!("{:016x}", fnv(h, format!("{stats:?}").as_bytes()));
        match self.lines.iter().find(|(k, _)| *k == key) {
            Some((_, d)) => assert_eq!(*d, digest, "two runs of `{key}` differ"),
            None => self.lines.push((key, digest)),
        }
    }

    /// Hold every recorded run to its committed line, and every
    /// committed line of a recorded case (of the tier classes that ran)
    /// to a run.
    pub fn check(self) {
        if !self.x86_fma {
            println!(
                "{}: no run bound an x86 FMA tier; its x86-fma rows are skipped",
                self.suite
            );
        }
        let got: HashMap<&str, &str> = (self.lines.iter())
            .map(|(k, d)| (k.as_str(), d.as_str()))
            .collect();
        let cases: HashSet<&str> = (self.lines.iter())
            .filter_map(|(k, _)| k.split(' ').nth(1))
            .collect();
        let mut committed = HashMap::new();
        let mut first_bad = None;
        for (no, line) in FILE.lines().enumerate() {
            let Some((key, digest)) = line.rsplit_once(' ') else {
                continue;
            };
            let fields: Vec<&str> = key.split(' ').collect();
            if fields[0] != self.suite || !cases.contains(fields[1]) {
                continue;
            }
            committed.insert(key, digest);
            if fields[3] == "x86-fma" && !self.x86_fma {
                continue;
            }
            let bad = match got.get(key) {
                Some(d) if *d == digest => continue,
                Some(d) => format!("computed {d}, committed {digest}"),
                None => "no run made it".to_string(),
            };
            first_bad.get_or_insert(format!("{FILE_NAME}:{}: {}: {bad}", no + 1, name(&fields)));
        }
        if first_bad.is_none() {
            let extra = self
                .lines
                .iter()
                .find(|(k, _)| !committed.contains_key(k.as_str()));
            if let Some((key, _)) = extra {
                let fields: Vec<&str> = key.split(' ').collect();
                first_bad = Some(format!("{}: no line in {FILE_NAME}", name(&fields)));
            }
        }
        if let Some(bad) = first_bad {
            for (key, digest) in &self.lines {
                println!("digest: {key} {digest}");
            }
            panic!("tape digest mismatch at {bad}");
        }
    }
}

/// A key's fields, named.
fn name(f: &[&str]) -> String {
    format!(
        "suite {}, case {}, model {}, tier {}, tiles {}",
        f[0], f[1], f[2], f[3], f[4]
    )
}

/// FNV-1a offset basis, the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `h`.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
