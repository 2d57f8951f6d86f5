//! # spttn-benchmark
//!
//! The repo's measurement spine (see `README.md` beside this crate).
//! Two binaries share this library:
//!
//! - `e2e` measures the three end-to-end metrics with tracing off and
//!   checks every output against [`reference`]. It and everything it
//!   links from this library apart from input generation stay on the
//!   call surface of `crates/cli/src/main.rs`.
//! - `layers` is the traced run: the same pipeline under a
//!   [`trace::Tracer`], plus per-layer probes that reach deeper into
//!   the public API. Those deeper calls live in `src/bin/layers.rs`
//!   and nowhere else.

pub mod compare;
pub mod json;
pub mod machine;
pub mod metrics;
pub mod pipeline;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Arguments both binaries take.
#[derive(Debug, Clone)]
pub struct Common {
    /// Selected workload names; empty means all five.
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Measuring window per workload.
    pub seconds: f64,
    /// Rounds the window is cut into (each workload samples every round).
    pub rounds: usize,
    /// Tiny tensors, one round: exercises every path, measures nothing.
    pub smoke: bool,
    /// The benchmark's directory: `work/` and `out/` live under it.
    pub root: PathBuf,
    /// Where to write the JSON document (default: under `out/`).
    pub out: Option<PathBuf>,
}

pub const COMMON_USAGE: &str = "\
    --workload NAME   run only this workload (repeatable; default: all five)
    --seed N          the only source of randomness [1]
    --seconds S       measuring window per workload [30]
    --rounds R        rounds the window is cut into [seconds/2.5, between 1 and 8]
    --smoke           tiny tensors, one short round: a self-test, not a measurement
    --root DIR        the benchmark directory holding work/ and out/ [this package]
    --out FILE        where to write the JSON document [out/<kind>-<seed>[-<workload>].json]
    --trace 0|1       accepted and ignored: the binary's name already says which run it is";

impl Common {
    /// Take the common flags out of `args`, leaving the rest in place.
    pub fn take(args: &mut Vec<String>) -> Result<Common, Error> {
        let mut c = Common {
            workloads: Vec::new(),
            seed: 1,
            seconds: 30.0,
            rounds: 0,
            smoke: false,
            root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
            out: None,
        };
        let mut rest = Vec::new();
        let mut it = std::mem::take(args).into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => c.workloads.push(value()?),
                "--seed" => c.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => c.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--rounds" => c.rounds = value()?.parse().map_err(|_| "bad --rounds")?,
                "--root" => c.root = PathBuf::from(value()?),
                "--out" => c.out = Some(PathBuf::from(value()?)),
                "--trace" => drop(value()?),
                "--smoke" => c.smoke = true,
                _ => rest.push(flag),
            }
        }
        *args = rest;
        if !(c.seconds > 0.0 && c.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        if c.smoke {
            c.seconds = c.seconds.min(0.3);
            c.rounds = 1;
        } else if c.rounds == 0 {
            c.rounds = ((c.seconds / 2.5) as usize).clamp(1, 8);
        }
        Ok(c)
    }

    /// The selected workloads at the selected size.
    pub fn selection(&self) -> Result<Vec<workloads::Workload>, Error> {
        let set = if self.smoke {
            workloads::smoke()
        } else {
            workloads::all()
        };
        workloads::select(set, &self.workloads)
    }

    /// `out/<kind>-<seed>[-smoke][-<workload>...].json`.
    pub fn out_path(&self, kind: &str) -> PathBuf {
        let mut stem = format!("{kind}-{}", self.seed);
        if self.smoke {
            stem.push_str("-smoke");
        }
        for w in &self.workloads {
            stem.push('-');
            stem.push_str(w);
        }
        self.root.join("out").join(format!("{stem}.json"))
    }
}

/// Write `doc` to `path`, creating the directory.
pub fn write_json(path: &std::path::Path, doc: &json::Json) -> Result<(), Error> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn common_flags_are_taken_and_the_rest_left() {
        let mut args = argv("--workload ttmc-hyper --seed 9 --compare a b --seconds 15 --trace 0");
        let c = Common::take(&mut args).unwrap();
        assert_eq!(args, argv("--compare a b"));
        assert_eq!((c.seed, c.seconds, c.rounds), (9, 15.0, 6));
        assert_eq!(c.selection().unwrap().len(), 1);
        assert!(c.out_path("e2e").ends_with("out/e2e-9-ttmc-hyper.json"));
    }

    #[test]
    fn smoke_is_one_short_round_and_bad_values_are_errors() {
        let c = Common::take(&mut argv("--smoke --seconds 12")).unwrap();
        assert_eq!((c.rounds, c.smoke), (1, true));
        assert!(c.seconds <= 0.3);
        assert_eq!(c.selection().unwrap()[0].tensor.stem, "smoke-cube");
        assert!(Common::take(&mut argv("--seed x")).is_err());
        assert!(Common::take(&mut argv("--seconds 0")).is_err());
        assert!(Common::take(&mut argv("--seed")).is_err());
    }
}
