//! Secure outsourced growing database substrate.
//!
//! IncShrink "does not create a new secure outsourced database but rather builds on
//! top of it" (Section 2.2). This crate is that underlying database, specialised to
//! the server-aided MPC setting the paper evaluates:
//!
//! * [`schema`] — relation schemas and timestamped logical records.
//! * [`logical`] — the owner-side growing logical database `D = {D_t}` (insert-only).
//! * [`outsourced`] — the secret-shared outsourced store `DS` held by the two servers
//!   (the public active window of padded batches plus lifetime counters), with the
//!   owners' padded-batch upload pipeline.
//! * [`cache`] — the secure outsourced cache `σ` with flush bookkeeping.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod logical;
pub mod outsourced;
pub mod schema;

pub use cache::SecureCache;
pub use logical::{GrowingDatabase, LogicalUpdate};
pub use outsourced::{ActiveWindow, OutsourcedStore, UploadBatch};
pub use schema::{RecordId, Relation, Schema};
