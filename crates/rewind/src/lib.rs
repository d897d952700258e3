//! # rewind — persistent, recoverable in-memory data structures for NVM
//!
//! A from-scratch Rust reproduction of *REWIND: Recovery Write-Ahead System
//! for In-Memory Non-Volatile Data-Structures* (Chatzistergiou, Cintra &
//! Viglas, PVLDB 8(5), 2015). This facade crate re-exports the whole system:
//!
//! * [`nvm`] — the simulated byte-addressable NVM substrate (pool, cache
//!   model, persistent allocator, cost model, crash injection);
//! * [`core`] — the REWIND runtime itself: the recoverable log structures
//!   (Simple / Optimized / Batch), the atomic AVL index for two-layer
//!   logging, and the transaction manager with commit, rollback, recovery
//!   and checkpointing under force / no-force policies;
//! * [`pds`] — persistent data structures written against the runtime
//!   (table, doubly-linked list, B+-tree);
//! * [`pagestore`] — the DBMS-style baseline engines the paper compares
//!   against (Stasis-, BerkeleyDB- and Shore-MT-like personalities);
//! * [`tpcc`] — the modified TPC-C (new-order) workload of Section 5.3;
//! * [`shard`] — the scale-out front-end: a [`ShardedStore`](shard::ShardedStore)
//!   that hash-partitions keys across independent pool+manager+tree shards
//!   and batches concurrent writes into per-shard group commits, with a
//!   completion-based async front-end (`submit_put` / `submit_transact`)
//!   that keeps hundreds of operations in flight per submitter thread;
//! * [`net`] — the network service layer: a pipelined length-prefixed
//!   binary protocol served over TCP ([`NetServer`](net::NetServer)), a
//!   blocking and a pipelined client ([`NetClient`](net::NetClient),
//!   [`PipelinedClient`](net::PipelinedClient)), typed `BUSY` admission
//!   control backed by the store's in-flight depth, and an open-loop
//!   simulator ([`run_sim`](net::run_sim)) that drives tens of thousands
//!   of logical connections;
//! * [`obs`] — the lock-free tracing and metrics layer: atomic latency
//!   histograms, per-thread trace rings covering the transaction / group-
//!   commit / 2PC / network-request lifecycle, and the
//!   [`TraceDump`](obs::TraceDump) forensic sink the crash-matrix suites
//!   print on oracle failure.
//!
//! ## Quickstart
//!
//! ```
//! use rewind::prelude::*;
//! use std::sync::Arc;
//!
//! // A simulated NVM pool and a REWIND transaction manager on top of it.
//! let pool = NvmPool::new(PoolConfig::small());
//! let tm = Arc::new(TransactionManager::create(pool.clone(), RewindConfig::batch()).unwrap());
//!
//! // A persistent B+-tree whose updates are logged and recoverable.
//! let tree = PBTree::create(Backing::rewind(tm)).unwrap();
//! tree.insert(7, [1, 2, 3, 4]).unwrap();
//!
//! // Simulate a power failure, re-open, and the data is still there.
//! pool.power_cycle();
//! let tm = Arc::new(TransactionManager::open(pool, RewindConfig::batch()).unwrap());
//! let tree = PBTree::attach(Backing::rewind(tm), tree.header());
//! assert_eq!(tree.lookup(7), Some([1, 2, 3, 4]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use rewind_core as core;
pub use rewind_net as net;
pub use rewind_nvm as nvm;
pub use rewind_obs as obs;
pub use rewind_pagestore as pagestore;
pub use rewind_pds as pds;
pub use rewind_shard as shard;
pub use rewind_tpcc as tpcc;

/// The most commonly used types, importable with `use rewind::prelude::*`.
pub mod prelude {
    pub use rewind_core::{
        LogLayers, LogStructure, Policy, Result, RewindConfig, RewindError, Transaction,
        TransactionManager, TxId,
    };
    pub use rewind_net::{
        ChurnConfig, NetClient, NetError, NetServer, PipelinedClient, ServerConfig, SimConfig,
    };
    pub use rewind_nvm::{
        CostModel, CrashMode, FaultConfig, FileOpenReport, NvmPool, PAddr, PoolConfig,
    };
    pub use rewind_obs::{MetricsSnapshot, Obs, TraceDump};
    pub use rewind_pagestore::{KvStore, Personality};
    pub use rewind_pds::{Backing, PBTree, PList, PTable, TxToken, Value};
    pub use rewind_shard::{
        Completion, CoordinatorStats, KeyOp, ShardConfig, ShardStats, ShardedStore, StoreTx,
        TxCompletion,
    };
    pub use rewind_tpcc::{Layout, ShardedTpcc, ShardedTpccConfig, TpccDb, TpccMix, TpccRunner};
}
