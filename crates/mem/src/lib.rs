//! # ff-mem — memory-system substrate
//!
//! The memory hierarchy the flea-flicker reproduction runs against,
//! built from scratch:
//!
//! * [`cache`] — set-associative, LRU tag arrays
//! * [`hierarchy`] — the paper's Table 1 L1D/L2/L3/memory stack with
//!   per-level effective latencies
//! * [`mshr`] — the 16-outstanding-loads limiter with fill merging
//! * [`store_buffer`] — the speculative store buffer that keeps A-pipe
//!   stores out of architectural memory and forwards them to A-pipe loads
//! * [`alat`] — the dynamic-ID-indexed Advanced Load Alias Table used to
//!   detect store conflicts against pre-executed loads (perfect and
//!   finite variants)
//!
//! Data values live in `ff_isa::MemoryImage`; this crate models *timing
//! and conflict* state only, which is what the pipelines in `ff-core`
//! consume.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod alat;
pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod store_buffer;

pub use alat::{Alat, AlatCheck, AlatConfig};
pub use cache::{Cache, CacheGeometry, GeometryError};
pub use hierarchy::{AccessOutcome, DataHierarchy, HierarchyConfig, HierarchyStats, MemLevel};
pub use mshr::{MshrFile, MshrStats};
pub use store_buffer::{BufferedStore, ForwardResult, StoreBuffer, StoreBufferFullError};
