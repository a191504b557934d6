//! SQL layer of the GaussDB-Global reproduction.
//!
//! Computing nodes parse queries, generate plans, and coordinate execution
//! on the data nodes (paper §II-A). This crate implements the SQL subset
//! the evaluation workloads (full TPC-C and Sysbench OLTP) require:
//!
//! * `CREATE TABLE` (primary key, `DISTRIBUTE BY HASH/RANGE/REPLICATION`),
//!   `DROP TABLE`, `CREATE INDEX`, `DROP INDEX`
//! * `INSERT`, `UPDATE`, `DELETE`, `SELECT` with `?` parameters (prepared
//!   statements), two-table joins, `BETWEEN`, `IN`, `ORDER BY`, `LIMIT`,
//!   `FOR UPDATE`, and the aggregates `COUNT(*)/COUNT(DISTINCT)/SUM/MIN/
//!   MAX/AVG`
//!
//! Execution is written against the [`access::DataAccess`] trait so the
//! same plans run on a single node (tests) or the distributed cluster
//! (the `globaldb` crate implements `DataAccess` with sharding, network
//! latency accounting, and MVCC snapshots).

pub mod access;
pub mod ast;
pub mod binder;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use access::DataAccess;
pub use ast::Statement;
pub use binder::bind_statement;
pub use exec::{execute, ExecOutput, Scratch};
pub use parser::parse;
pub use plan::BoundStatement;

use gdb_model::GdbResult;
use gdb_storage::Catalog;

/// A prepared statement: parsed and bound once, executed many times with
/// different parameters (how the TPC-C driver runs, and how real clients
/// avoid per-call parse cost).
#[derive(Debug, Clone)]
pub struct Prepared {
    pub bound: BoundStatement,
    pub sql: String,
}

/// Parse and bind `sql` against `catalog`.
pub fn prepare(sql: &str, catalog: &Catalog) -> GdbResult<Prepared> {
    let stmt = parse(sql)?;
    let bound = bind_statement(&stmt, catalog)?;
    Ok(Prepared {
        bound,
        sql: sql.to_owned(),
    })
}
