//! Benchmark harness reproducing the evaluation of *"Cider: Native
//! Execution of iOS Apps on Android"* (ASPLOS 2014).
//!
//! * [`config`] — the four measurement configurations (§6) as bootable
//!   test beds;
//! * [`lmbench`] — the lmbench 3.0 microbenchmarks (Figure 5);
//! * [`fig5`] / [`fig6`] — full-figure runners producing normalized
//!   tables;
//! * [`apps`] — the app-framework scenario table (launch, jetsam
//!   round trip, realtime audio) built on `cider-frameworks`;
//! * [`ablations`] — shared-cache, diplomat-aggregation, fence-bug, and
//!   duct-tape-overhead experiments;
//! * [`dispatch`] — the virtual trap, IPC v2 and launch costs of
//!   `BENCH_dispatch.json`;
//! * [`report`] — the normalized-table formatter.
//!
//! The `cider-report` binary prints every table.
//! `tests/golden_tables.rs` pins Figures 5 and 6, the app table and
//! `BENCH_dispatch.json` byte for byte. The one bench target,
//! `benches/dispatch.rs`, times the dense syscall table against a
//! `BTreeMap` in host time.

pub mod ablations;
pub mod apps;
pub mod config;
pub mod dispatch;
pub mod fig5;
pub mod fig6;
pub mod lmbench;
pub mod report;

pub use config::{SystemConfig, TestBed};
pub use report::{Table, TableRow};
