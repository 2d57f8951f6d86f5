//! Network fixtures shared by the `spttn-net` suites: seeded operands
//! with the whole-network naive oracle, and the golden networks every
//! suite runs.

// Each suite includes this file and uses its own subset.
#![allow(dead_code)]

use rand::prelude::*;
use spttn::exec::naive_einsum;
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::Shapes;
use spttn_net::Network;

/// One golden network: expression, extents, sparse shape, nnz, seed.
pub struct Golden {
    pub expr: &'static str,
    pub dims: &'static [(&'static str, usize)],
    pub sparse_dims: &'static [usize],
    pub nnz: usize,
    pub seed: u64,
}

const ALS_DIMS: &[(&str, usize)] = &[("i", 14), ("j", 12), ("k", 10), ("r", 5)];

/// One MTTKRP-shaped network per mode, as a CP-ALS sweep issues them.
pub const CP_ALS: [Golden; 3] = [
    Golden {
        expr: "T[i,j,k]*B[j,r]*C[k,r] -> A_new[i,r]",
        dims: ALS_DIMS,
        sparse_dims: &[14, 12, 10],
        nnz: 200,
        seed: 31,
    },
    Golden {
        expr: "T[i,j,k]*A[i,r]*C[k,r] -> B_new[j,r]",
        dims: ALS_DIMS,
        sparse_dims: &[14, 12, 10],
        nnz: 200,
        seed: 32,
    },
    Golden {
        expr: "T[i,j,k]*A[i,r]*B[j,r] -> C_new[k,r]",
        dims: ALS_DIMS,
        sparse_dims: &[14, 12, 10],
        nnz: 200,
        seed: 33,
    },
];

pub const TENSOR_TRAIN: Golden = Golden {
    expr: "T[i,j,k]*G1[i,a]*G2[a,j,b]*G3[b,k,c] -> O[c]",
    dims: &[("i", 13), ("j", 11), ("k", 9), ("a", 4), ("b", 3), ("c", 5)],
    sparse_dims: &[13, 11, 9],
    nnz: 180,
    seed: 7,
};

/// A chain hanging off the sparse tensor: the tail contractions
/// D(s,u) and C(r,s) are candidates for off-spine materialization.
pub const FIVE_TENSOR: Golden = Golden {
    expr: "T[i,j,k]*A[j,r]*B[k,r]*C[r,s]*D[s,u] -> O[i,u]",
    dims: &[("i", 12), ("j", 10), ("k", 8), ("r", 4), ("s", 5), ("u", 3)],
    sparse_dims: &[12, 10, 8],
    nnz: 150,
    seed: 11,
};

/// D1*D2 is far cheaper than touching the sparse tensor first, so this
/// network exercises the materialized dense-step path and the `_net`
/// intermediate feeding the collapsed kernel.
pub const DENSE_CHAIN: Golden = Golden {
    expr: "T[i,j]*D1[j,m]*D2[m,r] -> O[i,r]",
    dims: &[("i", 20), ("j", 15), ("m", 4), ("r", 6)],
    sparse_dims: &[20, 15],
    nnz: 120,
    seed: 23,
};

/// Every golden network, in the order `tests/network.rs` runs them.
pub fn goldens() -> Vec<&'static Golden> {
    let mut all: Vec<&Golden> = CP_ALS.iter().collect();
    all.extend([&TENSOR_TRAIN, &FIVE_TENSOR, &DENSE_CHAIN]);
    all
}

/// Operands + oracle for a network: seeded random factors (one per
/// dense kernel slot, shared by name) and the naive dense contraction
/// of the whole-network kernel.
pub struct Fixture {
    pub net: Network,
    pub shapes: Shapes,
    pub csf: Csf,
    pub factors: Vec<(String, DenseTensor)>,
    pub want: DenseTensor,
}

impl Fixture {
    pub fn new(
        expr: &str,
        dims: &[(&str, usize)],
        sparse_dims: &[usize],
        nnz: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let coo = random_coo(sparse_dims, nnz, &mut rng).unwrap();
        let order: Vec<usize> = (0..coo.order()).collect();
        let csf = Csf::from_coo(&coo, &order).unwrap();
        let net = Network::parse(expr).unwrap();
        let shapes = Shapes::new()
            .with_dims(dims)
            .with_profile(SparsityProfile::from_csf(&csf));
        let kernel = net.kernel(&shapes).unwrap();
        let mut factors: Vec<(String, DenseTensor)> = Vec::new();
        for (slot, r) in kernel.inputs.iter().enumerate() {
            if slot == kernel.sparse_input {
                continue;
            }
            let t = match factors.iter().find(|(n, _)| *n == r.name) {
                Some((_, t)) => t.clone(),
                None => random_dense(&kernel.ref_dims(r), &mut rng),
            };
            factors.push((r.name.clone(), t));
        }
        let sparse_dense = coo.to_dense();
        let mut slots: Vec<&DenseTensor> = Vec::new();
        let mut next = 0usize;
        for slot in 0..kernel.inputs.len() {
            if slot == kernel.sparse_input {
                slots.push(&sparse_dense);
            } else {
                slots.push(&factors[next].1);
                next += 1;
            }
        }
        let want = naive_einsum(&kernel, &slots).unwrap();
        Fixture {
            net,
            shapes,
            csf,
            factors,
            want,
        }
    }

    pub fn golden(g: &Golden) -> Self {
        Fixture::new(g.expr, g.dims, g.sparse_dims, g.nnz, g.seed)
    }

    pub fn named(&self) -> Vec<(&str, &DenseTensor)> {
        let mut named: Vec<(&str, &DenseTensor)> = Vec::new();
        for (name, t) in &self.factors {
            if !named.iter().any(|(n, _)| n == name) {
                named.push((name, t));
            }
        }
        named
    }
}
