//! Zero-Free Data Reshaping (Sec. IV-A).
//!
//! ZFDR's key observation: when a kernel slides over a zero-inserted input
//! (T-CONV), the set of kernel elements that align with *true* inputs is a
//! function of the output position — and only a handful of distinct
//! alignment *patterns* exist. Reshaping the kernel once per pattern (and
//! gathering only true inputs) turns the convolution into dense MMVs with
//! no zero operand at all. The same idea applies to the zero-inserted
//! `∇output` kernel of W-CONV-S.
//!
//! Because rows and columns factorise, a pattern is a pair (triple, for
//! volumetric GANs) of *axis patterns*. [`plan::ZfdrPlan`] enumerates axis
//! patterns exactly; [`closed_form`] implements the paper's Case 1/2/3
//! counting (CornerReshape / EdgeReshape / InsideReshape, Eq. 11–13), which
//! the tests cross-validate against the enumeration. The functional
//! execution is [`lergan_tensor::zero_free::PhaseConv`]: it groups output
//! positions by phase class rather than by pattern, and its count of
//! true-value products equals the plan's reuse-weighted pattern volume on
//! every 2-D benchmark geometry (`tests/zfdr_end_to_end.rs`).

pub mod closed_form;
pub mod plan;

pub use plan::{AxisClass, ClassKind, KindSummary, ZfdrPlan};
