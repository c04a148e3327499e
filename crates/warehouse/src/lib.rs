//! Report warehouse and trace-ingest service layer (DESIGN.md §14).
//!
//! Split out of the `raceline` CLI so the service is reusable: the binary
//! wires `serve`/`client` subcommands to this crate, tests drive
//! [`service::Service`] in-process, and the equivalence contract — served
//! catalogue ≡ sequential offline fold, byte for byte, under any upload
//! order, worker count, or crash schedule — is enforced here by
//! construction (commutative folds keyed by content identity, plus the
//! newline-committed log discipline of `helgrind_core::commitlog`, shared
//! with the soak log and the explore checkpoint).

pub mod client;
pub mod json;
pub mod render;
pub mod server;
pub mod service;
pub mod wlog;

pub use render::{render_catalogue, render_diff_json, DiffEntry};
pub use service::{analyze_for_warehouse, content_hash, Service, ServiceConfig, SubmitOutcome};
pub use wlog::WarehouseLog;

/// The warehouse log's file name inside the spool directory.
pub const LOG_FILE: &str = "warehouse.log";
/// The upload spool's file name inside the spool directory: one record
/// per upload, its bytes framed by `helgrind_core::commitlog::RecordFile`.
pub const SPOOL_FILE: &str = "uploads.spool";
