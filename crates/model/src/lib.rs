//! Shared data-model types for the GaussDB-Global reproduction.
//!
//! Every other crate in the workspace builds on these primitives: identifier
//! newtypes, the [`Timestamp`] ordering domain that the GTM / GClock / DUAL
//! transaction managers all produce into, SQL values ([`Datum`]), rows,
//! schemas, and the common error type.

pub mod datum;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod intern;
pub mod row;
pub mod rowmap;
pub mod schema;
pub mod timestamp;

pub use datum::{DataType, Datum};
pub use error::{GdbError, GdbResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{IndexId, ShardId, TableId, TxnId};
pub use intern::{Interner, Sym};
pub use row::{Row, RowKey};
pub use rowmap::RowMap;
pub use schema::{ColumnDef, DistributionKind, SchemaBuilder, TableSchema};
pub use timestamp::{Timestamp, TimestampBound};
