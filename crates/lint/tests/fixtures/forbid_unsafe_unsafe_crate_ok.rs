//! Clean root for an unsafe-permitted crate (dcl_par).

#![deny(unsafe_op_in_unsafe_fn)]

pub fn noop() {}
