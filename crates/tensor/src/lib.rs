//! Dense `f32` tensor library underpinning the Deep Validation reproduction.
//!
//! The crate provides the numeric substrate every other crate builds on:
//!
//! - [`Shape`]: dimension bookkeeping with row-major strides,
//! - [`Tensor`]: contiguous row-major storage with elementwise ops,
//!   reductions and random initialization,
//! - [`gemm`]: the packed, register-tiled GEMM microkernel every matrix
//!   product routes through, plus the direct convolution forward, each
//!   with an AVX arm on x86_64 CPUs that have it (detected at runtime,
//!   same bits as the scalar arm),
//! - [`matmul`]: dense matrix multiplication (plus transposed variants
//!   used by backpropagation) as thin adapters over [`gemm`],
//! - [`conv`]: `im2col` / `col2im` lowering and the one patch-row
//!   gather behind both `im2col` and the convolution kernels in
//!   [`gemm`],
//! - [`io`]: a tiny versioned binary format used to cache trained models
//!   between experiment runs.
//!
//! # Examples
//!
//! ```
//! use dv_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = dv_tensor::matmul::matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod gemm_simd;
pub mod io;
pub mod linalg;
pub mod matmul;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod view;
pub mod workspace;

pub use shape::Shape;
pub use tensor::Tensor;
pub use view::{TensorView, TensorViewMut};
pub use workspace::{SlotAllocator, Workspace};
