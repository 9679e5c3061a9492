//! The four workloads. Each stresses a different set of layers; see each
//! module's header for why it exists.

pub mod decode;
pub mod encoder;
pub mod remote;
pub mod saturate;
mod serve_common;
