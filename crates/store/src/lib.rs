//! `ofh-store` — the memory-mapped columnar study store and its query
//! engine.
//!
//! The study pipeline ends in rendered tables; this crate ends it in a
//! *queryable artifact*. [`build_store`] serializes the merged scan
//! results, honeypot events and telescope capture into one columnar
//! segment file (dictionary-encoded categorical columns with bitmap
//! indexes, delta-encoded time columns with restart blocks, per-block
//! zone maps), written deterministically: the bytes are a pure function
//! of (seed, shards), byte-identical across worker counts like every
//! other study artifact.
//!
//! [`StoreReader`] memory-maps the file and answers queries with
//! predicate pushdown — bitmap AND + popcount for label predicates, zone
//! maps for point lookups, restart-block skipping for time ranges —
//! without materializing rows. [`QueryEngine`] shares one reader across
//! threads behind an `Arc` and adds a small LRU answer cache.
//!
//! Module map:
//! - [`bytes`] — little-endian + LEB128 primitives
//! - [`mmap`] — the read-only mapping (no external crate)
//! - [`column`] — the five physical column encodings
//! - [`segment`] — file layout: TOC, tables, column directories
//! - [`build`] — study artifacts → segment bytes, and the label format
//!   (enum ↔ dictionary label, both directions)
//! - [`query`] — [`StoreReader`], [`Query`], [`QueryEngine`]
//! - [`tables`] — column decoders feeding the `ofh_analysis` constructors
//!   of Tables 4/5/7

pub mod build;
pub mod bytes;
pub mod column;
pub mod mmap;
pub mod query;
pub mod segment;
pub mod tables;

pub use build::{build_store, write_store, StoreInput};
pub use bytes::FormatError;
pub use query::{Answer, HostHit, Query, QueryEngine, StoreReader};
