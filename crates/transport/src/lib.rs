//! sb-transport: the unified zero-copy IPC transport layer.
//!
//! One [`Transport`] trait serves every IPC personality in the
//! reproduction — SkyBridge direct server calls, kernel trap IPC under
//! the seL4, Fiasco.OC and Zircon cost personalities, and the
//! [`mpk`] protection-key crossing — over one [`wire`] message layout: a
//! fixed [`WireHeader`] (opcode, correlation id, deadline, payload
//! length) ahead of a payload written **once** into the
//! per-server-thread shared buffer and served in place. Small arguments
//! travel in the [`RegImage`] the paper's trampoline carries in
//! registers.
//!
//! Every lane-buffered personality wraps its crossing in one [`Lanes`]
//! envelope (tenant note, `Call` span, copy meter, reply-correlation
//! check) and serves the same [`ServiceSpec`] work.
//!
//! The dispatcher, retry/recovery machinery, load generator, and the
//! chaos and differential harnesses (in `sb-runtime`) are generic over
//! [`Transport`]; [`Faulty`] composes fault injection with any backend.

mod faulty;
pub mod mpk;
pub mod ring;
pub mod service;
mod transport;
pub mod wire;

pub use faulty::Faulty;
pub use mpk::MpkTransport;
pub use ring::{RingCompletion, RingConfig, RingError, RingTransport};
pub use service::{ServiceSpec, DATA_BASE, RECORD_LINE};
pub use transport::{
    verify_reply_corr, BatchComplete, CallError, FixedServiceTransport, Lanes, Transport,
};
pub use wire::{
    opcode, CopyMeter, Lane, RegImage, Request, TenantId, WireHeader, OP_TAG_OFFSET,
    WIRE_HEADER_LEN, WIRE_MIN,
};
