//! Secure outsourced growing database substrate.
//!
//! IncShrink "does not create a new secure outsourced database but rather builds on
//! top of it" (Section 2.2). This crate is that underlying database, specialised to
//! the server-aided MPC setting the paper evaluates:
//!
//! * [`schema`] — relation schemas and timestamped logical records.
//! * [`logical`] — the owner-side growing logical database `D = {D_t}` (insert-only).
//! * [`outsourced`] — the owners' padded upload batches, outsourced to the two
//!   servers as secret shares. The servers keep no copy past Transform: its
//!   public active window is priced from the batches' lengths and upload steps,
//!   and nothing reads their shares again.
//! * [`cache`] — the secure outsourced cache `σ` with flush bookkeeping.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod logical;
pub mod outsourced;
pub mod schema;

pub use cache::SecureCache;
pub use logical::{GrowingDatabase, LogicalUpdate};
pub use outsourced::UploadBatch;
pub use schema::{width_for, RecordId, Relation, Schema, SchemaError};
