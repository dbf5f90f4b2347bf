//! A tiered distributed file system core, modelled on OctopusFS.
//!
//! This crate implements the storage substrate of the paper: an HDFS-style
//! multi-master/worker DFS whose blocks are replicated both *across nodes*
//! and *across storage tiers* (memory / SSD / HDD), plus the Replication
//! Manager machinery that the automated tiering policies drive.
//!
//! Components (paper Figure 3):
//!
//! * [`namespace::Namespace`] — the FS Directory (hierarchical paths).
//! * [`block::BlockManager`] — block → replica locations, with a per-tier
//!   inverted file index.
//! * [`node::NodeManager`] — per-node per-tier devices with reserve/commit
//!   space accounting, and a per-node change counter.
//! * [`stats::StatsRegistry`] — per-file access statistics (last *k*
//!   accesses) feeding both classic policies and the ML feature pipeline.
//! * [`recency::RecencyIndex`] — incrementally-maintained per-tier and
//!   global recency orderings, so LRU/MRU candidate selection is an index
//!   walk instead of a collect-and-sort over the namespace.
//! * [`shard`] — the fixed shard partitioning (and order-preserving k-way
//!   merges) that the block manager's and recency index's per-file
//!   bookkeeping is distributed over, keeping each ordered index small at
//!   million-file scale while reproducing the global iteration orders bit
//!   for bit.
//! * [`epoch`] — the parallel epoch fan-out built on that partitioning: a
//!   fixed-size worker pool ([`epoch::EpochPool`]) scans shard-local read
//!   views concurrently and returns per-shard results in shard order, so
//!   merge-and-commit callers stay byte-identical at any thread count.
//! * [`cache`] — a sharded L1 (memory) / L2 (SSD) block cache with
//!   TinyLFU-style admission control, sitting in front of the read path:
//!   hits short-circuit flow scheduling entirely, misses fall through to
//!   the tiered (or degraded) read and fill the cache on completion.
//! * [`ec`] — the erasure-coding layer behind the per-tier
//!   [`config::RedundancyMode`]: a GF(256) Reed–Solomon codec plus the
//!   stripe metadata ([`ec::StripeManager`]) tracking data/parity shard
//!   placements for blocks downgraded into an EC-configured cold tier.
//! * [`placement::PlacementPolicy`] — the multi-objective placement of
//!   OctopusFS, reused for choosing transfer destinations (§5.3/§6.3). It
//!   scores from a per-device table that re-reads a node only when its
//!   change counter moved.
//! * [`replication`] — transfer plans, movement statistics, and the
//!   self-healing [`replication::RepairPlanner`] that re-replicates
//!   under-replicated blocks after node crashes and disk losses.
//! * [`dfs::TieredDfs`] — the facade tying it all together.
//!
//! The crate is simulation-agnostic: it accounts space and metadata but
//! performs no I/O; the `octo-cluster` crate turns transfer plans into
//! bandwidth-model flows and calls back on completion.

pub mod backend;
pub mod block;
pub mod cache;
pub mod config;
pub mod dfs;
pub mod ec;
pub mod epoch;
pub mod files;
pub mod namespace;
pub mod node;
pub mod placement;
pub mod recency;
pub mod replication;
pub mod shard;
pub mod stats;

pub use backend::{FileRecord, SimBackend, StorageBackend, TierStatus};
pub use block::{BlockInfo, BlockManager, Replica};
pub use cache::{BlockCache, BlockKey, CacheConfig, CacheLevel, CacheStats};
pub use config::{DfsConfig, RedundancyMode};
pub use dfs::{BlockWrite, DowngradeTarget, NodeFailure, TieredDfs, WritePlan};
pub use ec::{shard_size, EcError, ReedSolomon, ShardLoc, Stripe, StripeManager};
pub use epoch::{EpochPool, ShardEpochPlan, ShardView};
pub use files::{FileMeta, FileState, FileTable};
pub use namespace::{Entry, Namespace};
pub use node::{Device, NodeManager};
pub use placement::{PlacementPolicy, PlacementWeights};
pub use recency::RecencyIndex;
pub use replication::{
    BlockAction, BlockTransfer, MovementStats, RepairPlanner, Transfer, TransferId, TransferKind,
};
pub use shard::{shard_of, SHARD_COUNT};
pub use stats::{AccessStats, HeatConfig, StatsRegistry};
