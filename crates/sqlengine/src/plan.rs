//! Bound statements and access paths (the logical/physical plan).

use gdb_model::{Datum, Ddl, IndexId, TableId};

/// A bound (name-resolved) expression. Column references carry a *slot*
/// (position in the FROM list — 0 = outer, 1 = inner join table) and the
/// column index within that table.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit(Datum),
    Param(usize),
    ColRef {
        slot: usize,
        idx: usize,
    },
    Bin(Box<Expr>, crate::ast::BinOp, Box<Expr>),
    Not(Box<Expr>),
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
}

impl Expr {
    /// True if the expression references any column of `slot`.
    pub fn references_slot(&self, slot: usize) -> bool {
        match self {
            Expr::Lit(_) | Expr::Param(_) => false,
            Expr::ColRef { slot: s, .. } => *s == slot,
            Expr::Bin(l, _, r) => l.references_slot(slot) || r.references_slot(slot),
            Expr::Not(e) => e.references_slot(slot),
            Expr::Between { expr, lo, hi } => {
                expr.references_slot(slot) || lo.references_slot(slot) || hi.references_slot(slot)
            }
            Expr::InList { expr, list } => {
                expr.references_slot(slot) || list.iter().any(|e| e.references_slot(slot))
            }
            Expr::IsNull { expr, .. } => expr.references_slot(slot),
        }
    }

    /// Highest slot referenced, if any.
    pub fn max_slot(&self) -> Option<usize> {
        match self {
            Expr::Lit(_) | Expr::Param(_) => None,
            Expr::ColRef { slot, .. } => Some(*slot),
            Expr::Bin(l, _, r) => opt_max(l.max_slot(), r.max_slot()),
            Expr::Not(e) => e.max_slot(),
            Expr::Between { expr, lo, hi } => {
                opt_max(opt_max(expr.max_slot(), lo.max_slot()), hi.max_slot())
            }
            Expr::InList { expr, list } => list
                .iter()
                .map(|e| e.max_slot())
                .fold(expr.max_slot(), opt_max),
            Expr::IsNull { expr, .. } => expr.max_slot(),
        }
    }
}

fn opt_max(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// How to fetch rows of one table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full primary-key equality: a single-row lookup.
    PointLookup { key: Vec<Expr> },
    /// Primary-key prefix equality plus an optional inclusive range on the
    /// next key column. Strict bounds stay in the residual filter.
    PkRange {
        prefix: Vec<Expr>,
        low: Option<Expr>,
        high: Option<Expr>,
    },
    /// Secondary-index prefix-equality lookup.
    IndexPrefix { index: IndexId, prefix: Vec<Expr> },
    /// Scan everything (last resort).
    FullScan,
}

impl AccessPath {
    /// True if this path touches a single row at most.
    pub fn is_point(&self) -> bool {
        matches!(self, AccessPath::PointLookup { .. })
    }
}

/// The inner side of a two-table join: fetched once per outer row; its key
/// expressions may reference slot 0.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    pub table: TableId,
    pub access: AccessPath,
    pub residual: Option<Expr>,
}

/// An aggregate in the projection.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: crate::ast::AggFunc,
    /// `None` = `COUNT(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
}

/// The output of a SELECT: plain expressions or aggregates (mixing is not
/// supported — TPC-C never mixes them).
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    Columns(Vec<Expr>),
    Aggregates(Vec<AggSpec>),
}

/// A bound SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Tables by slot (1 or 2 entries).
    pub tables: Vec<TableId>,
    pub outer_access: AccessPath,
    pub outer_residual: Option<Expr>,
    pub join: Option<JoinPlan>,
    pub projection: Projection,
    /// `(slot, column, descending)`.
    pub order_by: Option<(usize, usize, bool)>,
    pub limit: Option<usize>,
    pub for_update: bool,
}

/// A fully bound statement, ready to execute (repeatedly, with params).
#[allow(clippy::large_enum_variant)] // statements are prepared once, not stored in bulk
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    Ddl(Ddl),
    Insert {
        table: TableId,
        /// Each row is full-width, in schema column order.
        rows: Vec<Vec<Expr>>,
    },
    Update {
        table: TableId,
        /// `(column index, new-value expression)`; the expression may
        /// reference the current row via slot 0.
        sets: Vec<(usize, Expr)>,
        access: AccessPath,
        residual: Option<Expr>,
    },
    Delete {
        table: TableId,
        access: AccessPath,
        residual: Option<Expr>,
    },
    Select(SelectPlan),
}

impl BoundStatement {
    /// Tables this statement touches (for DDL-visibility checks and shard
    /// routing). DDL lists none: it runs outside transactions, and its
    /// table is [`Ddl::table`].
    pub fn tables(&self) -> &[TableId] {
        match self {
            BoundStatement::Ddl(_) => &[],
            BoundStatement::Insert { table, .. }
            | BoundStatement::Update { table, .. }
            | BoundStatement::Delete { table, .. } => std::slice::from_ref(table),
            BoundStatement::Select(s) => &s.tables,
        }
    }

    /// True for read-only statements (ROR-eligible).
    pub fn is_read_only(&self) -> bool {
        matches!(self, BoundStatement::Select(s) if !s.for_update)
    }
}
