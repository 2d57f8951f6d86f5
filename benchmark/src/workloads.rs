//! The five workloads, their seeded inputs, and the idempotent
//! `--prepare` step that writes each sparse tensor once as a FROSTT
//! `.tns` file. `--seed` is the only source of randomness: the tensor
//! comes from `seed`, the dense factors from `seed + 1`.

use crate::Error;
use rand::prelude::*;
use spttn::tensor::{random_coo, random_dense, CooTensor, DenseTensor};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Which harness-owned reference loop checks the workload's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `A(i,a) = T(i,j,k) * B(j,a) * C(k,a)`
    Mttkrp,
    /// `S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)`
    Ttmc,
    /// `S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)` (sparse output)
    Tttp,
    /// `O[i,r] = T[i,j,k] * A[j,m] * D[m,r] * B[k,r]`
    NetFactored,
}

/// A seeded sparse tensor; workloads that name the same `stem` read the
/// same file.
#[derive(Debug, Clone, Copy)]
pub struct TensorSpec {
    pub stem: &'static str,
    pub dims: [usize; 3],
    pub nnz: usize,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload is in the set (one line, mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub expr: &'static str,
    /// Planned and executed through `spttn_net` with `--order optimal`.
    pub net: bool,
    pub kernel: Kernel,
    pub tensor: TensorSpec,
    /// Extents of the indices that are not on the sparse tensor.
    pub dense: &'static [(&'static str, usize)],
    /// Dense factors in written order, each with its index names.
    pub factors: &'static [(&'static str, &'static [&'static str])],
    /// Whether the output is dense (the `parallel` probes reduce
    /// output-sized partials, so they apply to these workloads only).
    pub dense_output: bool,
}

const CUBE: TensorSpec = TensorSpec {
    stem: "cube",
    dims: [512, 96, 96],
    nnz: 250_000,
};
const HYPER: TensorSpec = TensorSpec {
    stem: "hyper",
    dims: [2000, 1500, 1000],
    nnz: 1_000_000,
};
const MID: TensorSpec = TensorSpec {
    stem: "mid",
    dims: [600, 400, 300],
    nnz: 150_000,
};

const MTTKRP: &str = "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)";
const MTTKRP_FACTORS: &[(&str, &[&str])] = &[("B", &["j", "a"]), ("C", &["k", "a"])];

/// The benchmark's workloads at full size.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "mttkrp-cube",
            why: "ROADMAP's reference cube (dense fibers): traversal-bound, the default plan walks the CSF 32x; where cost-model regret shows",
            expr: MTTKRP,
            net: false,
            kernel: Kernel::Mttkrp,
            tensor: CUBE,
            dense: &[("a", 32)],
            factors: MTTKRP_FACTORS,
            dense_output: true,
        },
        Workload {
            name: "mttkrp-hyper",
            why: "same kernel on a hypersparse 1M-nnz tensor: the cube's winning plan is 80x worse here; setup is ingest-dominated",
            expr: MTTKRP,
            net: false,
            kernel: Kernel::Mttkrp,
            tensor: HYPER,
            dense: &[("a", 32)],
            factors: MTTKRP_FACTORS,
            dense_output: true,
        },
        Workload {
            name: "ttmc-hyper",
            why: "microkernel-bound (850k GER + 1M AXPY dispatches): where exec::simd does the work and the plan choice is already right",
            expr: "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            net: false,
            kernel: Kernel::Ttmc,
            tensor: HYPER,
            dense: &[("r", 16), ("s", 16)],
            factors: &[("U", &["j", "r"]), ("V", &["k", "s"])],
            dense_output: true,
        },
        Workload {
            name: "tttp-mid",
            why: "sparse-pattern output with a DOT/GEMV/XMUL mix and no dense reduce; the default plan is pathological here",
            expr: "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            net: false,
            kernel: Kernel::Tttp,
            tensor: MID,
            dense: &[("r", 32)],
            factors: &[
                ("U", &["i", "r"]),
                ("V", &["j", "r"]),
                ("W", &["k", "r"]),
            ],
            dense_output: false,
        },
        Workload {
            name: "net-factored",
            why: "the spttn-net path: order search, one off-spine dense step (A*D) through the stride-walk loop, then the collapsed MTTKRP",
            expr: "T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]",
            net: true,
            kernel: Kernel::NetFactored,
            tensor: HYPER,
            dense: &[("m", 256), ("r", 32)],
            factors: &[
                ("A", &["j", "m"]),
                ("D", &["m", "r"]),
                ("B", &["k", "r"]),
            ],
            dense_output: true,
        },
    ]
}

/// The same five workloads on tiny tensors, for `--smoke`: every call
/// path and probe runs, no number means anything.
pub fn smoke() -> Vec<Workload> {
    let shrink = |w: Workload| {
        let tensor = match w.tensor.stem {
            "cube" => TensorSpec {
                stem: "smoke-cube",
                dims: [32, 12, 12],
                nnz: 900,
            },
            "hyper" => TensorSpec {
                stem: "smoke-hyper",
                dims: [60, 50, 40],
                nnz: 3_000,
            },
            _ => TensorSpec {
                stem: "smoke-mid",
                dims: [40, 30, 20],
                nnz: 1_500,
            },
        };
        let dense: &'static [(&'static str, usize)] = match w.kernel {
            Kernel::Mttkrp => &[("a", 8)],
            Kernel::Ttmc => &[("r", 4), ("s", 4)],
            Kernel::Tttp => &[("r", 8)],
            Kernel::NetFactored => &[("m", 16), ("r", 8)],
        };
        Workload { tensor, dense, ..w }
    };
    all().into_iter().map(shrink).collect()
}

/// Pick workloads by name from `set`; an empty selection means all.
pub fn select(set: Vec<Workload>, names: &[String]) -> Result<Vec<Workload>, Error> {
    if let Some(bad) = names.iter().find(|n| set.iter().all(|w| w.name != *n)) {
        let known: Vec<&str> = set.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload '{bad}' (known: {})", known.join(", ")).into());
    }
    Ok(set
        .into_iter()
        .filter(|w| names.is_empty() || names.iter().any(|n| n == w.name))
        .collect())
}

impl Workload {
    /// Where `--prepare` puts this workload's tensor for `seed`.
    pub fn tns_path(&self, root: &Path, seed: u64) -> PathBuf {
        root.join("work")
            .join(format!("{}-{seed}.tns", self.tensor.stem))
    }

    /// The sparse tensor for `seed`, as the harness knows it (the
    /// program under test only ever sees the file).
    pub fn generate(&self, seed: u64) -> Result<CooTensor, Error> {
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(random_coo(&self.tensor.dims, self.tensor.nnz, &mut rng)?)
    }

    /// Extent of index `name`. The `.tns` reader infers each sparse
    /// extent as the largest coordinate present, so the sparse extents
    /// come from the tensor (`coo_dims`), not from the spec — on the
    /// tiny smoke tensors the two can differ.
    pub fn dim(&self, name: &str, coo_dims: &[usize]) -> usize {
        match name {
            "i" => coo_dims[0],
            "j" => coo_dims[1],
            "k" => coo_dims[2],
            other => {
                self.dense
                    .iter()
                    .find(|(n, _)| *n == other)
                    .unwrap_or_else(|| panic!("workload {} has no index '{other}'", self.name))
                    .1
            }
        }
    }

    /// Seeded dense factors (from `seed + 1`), in written order.
    pub fn make_factors(&self, seed: u64, coo_dims: &[usize]) -> Vec<(&'static str, DenseTensor)> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        self.factors
            .iter()
            .map(|(name, inds)| {
                let dims: Vec<usize> = inds.iter().map(|i| self.dim(i, coo_dims)).collect();
                (*name, random_dense(&dims, &mut rng))
            })
            .collect()
    }
}

/// Extents the `.tns` reader will infer for `coo`: largest coordinate
/// present in each mode, plus one.
pub fn inferred_dims(coo: &CooTensor) -> Vec<usize> {
    let order = coo.order();
    let mut dims = vec![0usize; order];
    for (n, &c) in coo.coords().iter().enumerate() {
        let m = n % order;
        dims[m] = dims[m].max(c + 1);
    }
    dims
}

/// Everything the harness knows about one workload at one seed.
pub struct Inputs {
    pub coo: CooTensor,
    /// Sparse extents as the program will see them (see [`Workload::dim`]).
    pub dims: Vec<usize>,
    pub factors: Vec<(&'static str, DenseTensor)>,
    pub tns: PathBuf,
}

impl Inputs {
    pub fn named(&self) -> Vec<(&str, &DenseTensor)> {
        self.factors.iter().map(|(n, t)| (*n, t)).collect()
    }
}

/// Generate the workload's inputs and make sure its `.tns` file exists
/// (the `--prepare` step: keyed by seed, a no-op when the file is
/// already there).
pub fn prepare(w: &Workload, root: &Path, seed: u64) -> Result<Inputs, Error> {
    let coo = w.generate(seed)?;
    let tns = w.tns_path(root, seed);
    if !tns.exists() {
        write_tns(&coo, &tns)?;
    }
    let dims = inferred_dims(&coo);
    let factors = w.make_factors(seed, &dims);
    Ok(Inputs {
        coo,
        dims,
        factors,
        tns,
    })
}

/// Write `coo` as FROSTT text: 1-based coordinates, then the value in
/// the shortest form that reads back to the same `f64`. Written beside
/// the target and renamed, so a reader never sees half a file.
fn write_tns(coo: &CooTensor, path: &Path) -> Result<(), Error> {
    let dir = path.parent().expect("tns path has a parent");
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    writeln!(out, "# {} nonzeros, dims {:?}", coo.nnz(), coo.dims())?;
    for (coord, v) in coo.iter() {
        for c in coord {
            write!(out, "{} ", c + 1)?;
        }
        writeln!(out, "{v}")?;
    }
    out.flush()?;
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spttn::tensor::load_coo;

    #[test]
    fn names_are_unique_and_selectable() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "mttkrp-cube",
                "mttkrp-hyper",
                "ttmc-hyper",
                "tttp-mid",
                "net-factored"
            ]
        );
        let picked = select(all(), &["tttp-mid".to_string()]).unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(select(all(), &[]).unwrap().len(), 5);
        assert!(select(all(), &["nope".to_string()]).is_err());
    }

    #[test]
    fn the_seed_is_the_only_source_of_randomness() {
        let w = &smoke()[0];
        let (a, b, c) = (
            w.generate(7).unwrap(),
            w.generate(7).unwrap(),
            w.generate(8).unwrap(),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        let dims = inferred_dims(&a);
        let (fa, fb) = (w.make_factors(7, &dims), w.make_factors(7, &dims));
        assert_eq!(fa[0].1.as_slice(), fb[0].1.as_slice());
        assert_ne!(fa[0].1.as_slice(), w.make_factors(8, &dims)[0].1.as_slice());
    }

    #[test]
    fn prepare_is_idempotent_and_the_file_reads_back_exactly() {
        let root = std::env::temp_dir().join(format!("spttn-bench-test-{}", std::process::id()));
        let w = &smoke()[3];
        let first = prepare(w, &root, 11).unwrap();
        let stamp = std::fs::metadata(&first.tns).unwrap().modified().unwrap();
        let second = prepare(w, &root, 11).unwrap();
        assert_eq!(
            std::fs::metadata(&second.tns).unwrap().modified().unwrap(),
            stamp,
            "second prepare must not rewrite the file"
        );
        let read = load_coo(&first.tns).unwrap();
        assert_eq!(read.dims(), &first.dims[..]);
        assert_eq!(read.coords(), first.coo.coords());
        assert_eq!(read.vals(), first.coo.vals());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
