//! Metamorphic image transformations used to synthesize real-world corner
//! cases (paper Section III-A, Tables I and IV).
//!
//! Images are `dv-tensor` tensors of shape `[C, H, W]` with pixel values in
//! `[0, 1]`. Seven base transformations are provided:
//!
//! - pixel-value transforms: [`Transform::Brightness`],
//!   [`Transform::Contrast`], [`Transform::Complement`],
//! - affine transforms via homogeneous 3x3 matrices ([`affine::Affine`]):
//!   [`Transform::Rotation`], [`Transform::Shear`], [`Transform::Scale`],
//!   [`Transform::Translation`],
//! - and [`Transform::Compose`] for the paper's combined transformations.
//!
//! Affine warping uses inverse mapping with bilinear interpolation and
//! zero (black) out-of-bounds fill; rotation, shear and scale are anchored
//! at the image center, matching how the paper's examples look (Fig. 2).
//!
//! # Examples
//!
//! ```
//! use dv_imgops::Transform;
//! use dv_tensor::Tensor;
//!
//! let img = Tensor::full(&[1, 8, 8], 0.25);
//! let brighter = Transform::Brightness { beta: 0.5 }.apply(&img);
//! assert!((brighter.data()[0] - 0.75).abs() < 1e-6);
//! let back = Transform::Complement.apply(&Transform::Complement.apply(&img));
//! assert_eq!(back.data(), img.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod occlude;
pub mod transform;
pub mod warp;

pub use affine::Affine;
pub use occlude::{occlude, occlude_center_fraction};
pub use transform::{Transform, TransformKind};
