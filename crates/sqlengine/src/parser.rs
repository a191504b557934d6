//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{lex, Token};
use gdb_model::{Datum, GdbError, GdbResult};

/// Parse one SQL statement.
pub fn parse(sql: &str) -> GdbResult<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    // Optional trailing semicolon, then end of input.
    let _ = p.eat(&Token::Semicolon);
    if !p.at_end() {
        return Err(GdbError::Parse(format!(
            "unexpected trailing tokens at {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// How deep one expression may nest before the parser rejects it. Every
/// parenthesis, `NOT`, unary minus and chained binary operator counts a
/// level: the parser, the binder, the evaluator and the tree's drop all
/// recurse on the tree, so its depth must not be the input's to choose.
const MAX_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    params: usize,
    /// Expression nesting so far (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self) -> GdbResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| GdbError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) && {
            self.pos += 1;
            true
        }
    }

    fn expect_kw(&mut self, kw: &str) -> GdbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(GdbError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Enter one more level of expression nesting.
    fn deeper(&mut self) -> GdbResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(GdbError::Parse(format!(
                "expression nested more than {MAX_DEPTH} levels deep"
            )));
        }
        Ok(())
    }

    fn expect(&mut self, t: Token) -> GdbResult<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(GdbError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> GdbResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(GdbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> GdbResult<Statement> {
        match self.peek() {
            Some(Token::Keyword(k)) => match k.as_str() {
                "SELECT" => self.select_stmt().map(Statement::Select),
                "INSERT" => self.insert_stmt(),
                "UPDATE" => self.update_stmt(),
                "DELETE" => self.delete_stmt(),
                "CREATE" => self.create_stmt(),
                "DROP" => self.drop_stmt(),
                other => Err(GdbError::Parse(format!("unsupported statement {other}"))),
            },
            other => Err(GdbError::Parse(format!(
                "expected statement, found {other:?}"
            ))),
        }
    }

    // ---- DDL ----------------------------------------------------------

    fn create_stmt(&mut self) -> GdbResult<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            return self.create_table();
        }
        // CREATE [UNIQUE] INDEX name ON table (cols)
        let _ = self.eat_kw("UNIQUE");
        self.expect_kw("INDEX")?;
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = vec![self.ident()?];
        while self.eat(&Token::Comma) {
            columns.push(self.ident()?);
        }
        self.expect(Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
        })
    }

    fn create_table(&mut self) -> GdbResult<Statement> {
        let name = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect(Token::LParen)?;
                primary_key.push(self.ident()?);
                while self.eat(&Token::Comma) {
                    primary_key.push(self.ident()?);
                }
                self.expect(Token::RParen)?;
            } else {
                let col = self.ident()?;
                let data_type = self.data_type()?;
                let mut not_null = false;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                }
                columns.push(ColumnSpec {
                    name: col,
                    data_type,
                    not_null,
                });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let distribute = if self.eat_kw("DISTRIBUTE") {
            self.expect_kw("BY")?;
            Some(self.dist_spec()?)
        } else {
            None
        };
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            primary_key,
            distribute,
        }))
    }

    fn data_type(&mut self) -> GdbResult<ParsedType> {
        match self.next()? {
            Token::Keyword(k) => {
                let t = match k.as_str() {
                    "INT" | "BIGINT" => ParsedType::Int,
                    "DECIMAL" => {
                        // Optional (precision, scale) — accepted, ignored
                        // (our decimals are scaled i64s).
                        if self.eat(&Token::LParen) {
                            let _ = self.next()?;
                            if self.eat(&Token::Comma) {
                                let _ = self.next()?;
                            }
                            self.expect(Token::RParen)?;
                        }
                        ParsedType::Decimal
                    }
                    "TEXT" => ParsedType::Text,
                    "VARCHAR" | "CHAR" => {
                        if self.eat(&Token::LParen) {
                            let _ = self.next()?;
                            self.expect(Token::RParen)?;
                        }
                        ParsedType::Text
                    }
                    "BOOLEAN" | "BOOL" => ParsedType::Bool,
                    other => return Err(GdbError::Parse(format!("unknown type {other}"))),
                };
                Ok(t)
            }
            other => Err(GdbError::Parse(format!("expected type, found {other:?}"))),
        }
    }

    fn dist_spec(&mut self) -> GdbResult<DistSpec> {
        if self.eat_kw("HASH") {
            self.expect(Token::LParen)?;
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(Token::RParen)?;
            Ok(DistSpec::Hash(cols))
        } else if self.eat_kw("RANGE") {
            self.expect(Token::LParen)?;
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(Token::RParen)?;
            let mut split_points = Vec::new();
            if self.eat_kw("SPLIT") {
                self.expect_kw("AT")?;
                self.expect(Token::LParen)?;
                loop {
                    match self.next()? {
                        Token::Int(v) => split_points.push(v),
                        Token::Minus => match self.next()? {
                            Token::Int(v) => split_points.push(-v),
                            other => {
                                return Err(GdbError::Parse(format!(
                                    "expected integer split point, found {other:?}"
                                )))
                            }
                        },
                        other => {
                            return Err(GdbError::Parse(format!(
                                "expected integer split point, found {other:?}"
                            )))
                        }
                    }
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(Token::RParen)?;
            }
            Ok(DistSpec::Range {
                columns: cols,
                split_points,
            })
        } else if self.eat_kw("REPLICATION") {
            Ok(DistSpec::Replication)
        } else {
            Err(GdbError::Parse(format!(
                "expected HASH/RANGE/REPLICATION, found {:?}",
                self.peek()
            )))
        }
    }

    fn drop_stmt(&mut self) -> GdbResult<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TABLE") {
            Ok(Statement::DropTable(self.ident()?))
        } else if self.eat_kw("INDEX") {
            Ok(Statement::DropIndex {
                name: self.ident()?,
            })
        } else {
            Err(GdbError::Parse("expected TABLE or INDEX after DROP".into()))
        }
    }

    // ---- DML ----------------------------------------------------------

    fn insert_stmt(&mut self) -> GdbResult<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat(&Token::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                row.push(self.expr()?);
            }
            self.expect(Token::RParen)?;
            values.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn update_stmt(&mut self) -> GdbResult<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete_stmt(&mut self) -> GdbResult<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn select_stmt(&mut self) -> GdbResult<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                items.push(SelectItem::Star);
            } else {
                items.push(SelectItem::Expr(self.expr()?));
                // Optional alias: AS name | bare name.
                if self.eat_kw("AS") || matches!(self.peek(), Some(Token::Ident(_))) {
                    let _ = self.ident()?; // alias, accepted and ignored
                }
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = vec![self.ident()?];
        if self.eat(&Token::Comma) {
            from.push(self.ident()?);
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let col = self.ident()?;
            let desc = if self.eat_kw("DESC") {
                true
            } else {
                let _ = self.eat_kw("ASC");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(v) if v >= 0 => Some(v as u64),
                other => {
                    return Err(GdbError::Parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        let for_update = if self.eat_kw("FOR") {
            self.expect_kw("UPDATE")?;
            true
        } else {
            false
        };
        Ok(SelectStmt {
            items,
            from,
            filter,
            order_by,
            limit,
            for_update,
        })
    }

    // ---- Expressions (precedence climbing) -----------------------------

    fn expr(&mut self) -> GdbResult<PExpr> {
        let depth = self.depth;
        self.deeper()?;
        let e = self.or_expr();
        self.depth = depth;
        e
    }

    fn or_expr(&mut self) -> GdbResult<PExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            self.deeper()?;
            let rhs = self.and_expr()?;
            lhs = PExpr::Bin(Box::new(lhs), BinOp::Or, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> GdbResult<PExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            self.deeper()?;
            let rhs = self.not_expr()?;
            lhs = PExpr::Bin(Box::new(lhs), BinOp::And, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> GdbResult<PExpr> {
        if self.eat_kw("NOT") {
            self.deeper()?;
            Ok(PExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> GdbResult<PExpr> {
        let lhs = self.add_expr()?;
        // BETWEEN / IN / IS NULL postfix forms.
        if self.eat_kw("BETWEEN") {
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            return Ok(PExpr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
            });
        }
        if self.eat_kw("IN") {
            self.expect(Token::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                list.push(self.expr()?);
            }
            self.expect(Token::RParen)?;
            return Ok(PExpr::InList {
                expr: Box::new(lhs),
                list,
            });
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(PExpr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Neq) => BinOp::Neq,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Lte) => BinOp::Lte,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Gte) => BinOp::Gte,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(PExpr::Bin(Box::new(lhs), op, Box::new(rhs)))
    }

    fn add_expr(&mut self) -> GdbResult<PExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.mul_expr()?;
            lhs = PExpr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> GdbResult<PExpr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.unary_expr()?;
            lhs = PExpr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> GdbResult<PExpr> {
        if self.eat(&Token::Minus) {
            self.deeper()?;
            let inner = self.unary_expr()?;
            return Ok(PExpr::Bin(
                Box::new(PExpr::Lit(Datum::Int(0))),
                BinOp::Sub,
                Box::new(inner),
            ));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> GdbResult<PExpr> {
        match self.next()? {
            Token::Int(v) => Ok(PExpr::Lit(Datum::Int(v))),
            // Float literals become scale-2 decimals (TPC-C money).
            Token::Float(v) => Ok(PExpr::Lit(Datum::Decimal((v * 100.0).round() as i64))),
            Token::Str(s) => Ok(PExpr::Lit(Datum::Text(s.into()))),
            Token::Param => {
                let idx = self.params;
                self.params += 1;
                Ok(PExpr::Param(idx))
            }
            Token::Keyword(k) => match k.as_str() {
                "NULL" => Ok(PExpr::Lit(Datum::Null)),
                "TRUE" => Ok(PExpr::Lit(Datum::Bool(true))),
                "FALSE" => Ok(PExpr::Lit(Datum::Bool(false))),
                "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" => {
                    let func = match k.as_str() {
                        "COUNT" => AggFunc::Count,
                        "SUM" => AggFunc::Sum,
                        "MIN" => AggFunc::Min,
                        "MAX" => AggFunc::Max,
                        _ => AggFunc::Avg,
                    };
                    self.expect(Token::LParen)?;
                    if func == AggFunc::Count && self.eat(&Token::Star) {
                        self.expect(Token::RParen)?;
                        return Ok(PExpr::Agg(func, None, false));
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let arg = self.expr()?;
                    self.expect(Token::RParen)?;
                    Ok(PExpr::Agg(func, Some(Box::new(arg)), distinct))
                }
                other => Err(GdbError::Parse(format!("unexpected keyword {other}"))),
            },
            Token::Ident(name) => {
                // Qualified column `t.col`?
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    Ok(PExpr::Col(Some(name), col))
                } else {
                    Ok(PExpr::Col(None, name))
                }
            }
            Token::LParen => {
                let inner = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(inner)
            }
            other => Err(GdbError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table_with_distribution() {
        let s = parse(
            "CREATE TABLE warehouse (w_id INT NOT NULL, w_name VARCHAR(10), w_ytd DECIMAL(12,2), \
             PRIMARY KEY (w_id)) DISTRIBUTE BY HASH(w_id)",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.name, "warehouse");
                assert_eq!(ct.columns.len(), 3);
                assert!(ct.columns[0].not_null);
                assert_eq!(ct.columns[1].data_type, ParsedType::Text);
                assert_eq!(ct.columns[2].data_type, ParsedType::Decimal);
                assert_eq!(ct.primary_key, vec!["w_id"]);
                assert_eq!(ct.distribute, Some(DistSpec::Hash(vec!["w_id".into()])));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_range_distribution_with_splits() {
        let s = parse(
            "CREATE TABLE t (a INT NOT NULL, PRIMARY KEY(a)) \
             DISTRIBUTE BY RANGE(a) SPLIT AT (100, 200, 300)",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(
                    ct.distribute,
                    Some(DistSpec::Range {
                        columns: vec!["a".into()],
                        split_points: vec![100, 200, 300]
                    })
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_replicated_table() {
        let s = parse(
            "CREATE TABLE item (i_id INT NOT NULL, PRIMARY KEY(i_id)) DISTRIBUTE BY REPLICATION",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.distribute, Some(DistSpec::Replication))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_insert_with_params() {
        let s = parse("INSERT INTO t (a, b) VALUES (?, ?)").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(values, vec![vec![PExpr::Param(0), PExpr::Param(1)]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_multi_row_insert() {
        let s = parse("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { values, .. } => assert_eq!(values.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_select_full_featured() {
        let s = parse(
            "SELECT c_first, c_balance FROM customer \
             WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? \
             ORDER BY c_first ASC LIMIT 10 FOR UPDATE",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.from, vec!["customer"]);
                assert!(sel.filter.is_some());
                assert_eq!(sel.order_by, Some(("c_first".into(), false)));
                assert_eq!(sel.limit, Some(10));
                assert!(sel.for_update);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_stock_level_join() {
        // The TPC-C Stock-Level query shape.
        let s = parse(
            "SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock \
             WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id BETWEEN ? AND ? \
             AND s_w_id = ? AND s_i_id = ol_i_id AND s_quantity < ?",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from, vec!["order_line", "stock"]);
                match &sel.items[0] {
                    SelectItem::Expr(PExpr::Agg(AggFunc::Count, Some(_), true)) => {}
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_update_with_arithmetic() {
        let s = parse("UPDATE stock SET s_quantity = s_quantity - ? WHERE s_i_id = ?").unwrap();
        match s {
            Statement::Update { sets, filter, .. } => {
                assert_eq!(sets.len(), 1);
                assert!(matches!(sets[0].1, PExpr::Bin(_, BinOp::Sub, _)));
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_delete() {
        let s = parse("DELETE FROM new_order WHERE no_w_id = ? AND no_o_id = 5").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn parameters_numbered_in_order() {
        let s = parse("SELECT a FROM t WHERE b = ? AND c = ? AND d = ?").unwrap();
        match s {
            Statement::Select(sel) => {
                // Collect param indices from the filter tree.
                fn collect(e: &PExpr, out: &mut Vec<usize>) {
                    match e {
                        PExpr::Param(i) => out.push(*i),
                        PExpr::Bin(l, _, r) => {
                            collect(l, out);
                            collect(r, out);
                        }
                        _ => {}
                    }
                }
                let mut idx = Vec::new();
                collect(sel.filter.as_ref().unwrap(), &mut idx);
                assert_eq!(idx, vec![0, 1, 2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        // a + b * c parses as a + (b * c).
        let s = parse("SELECT a + b * c FROM t").unwrap();
        match s {
            Statement::Select(sel) => match &sel.items[0] {
                SelectItem::Expr(PExpr::Bin(_, BinOp::Add, rhs)) => {
                    assert!(matches!(**rhs, PExpr::Bin(_, BinOp::Mul, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(sel.filter.unwrap(), PExpr::Bin(_, BinOp::Or, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_floats() {
        let s = parse("SELECT a FROM t WHERE b > -5 AND c < 3.5").unwrap();
        assert!(matches!(s, Statement::Select(_)));
    }

    #[test]
    fn parse_errors_are_errors() {
        assert!(parse("SELEC a FROM t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("INSERT INTO").is_err());
        assert!(parse("SELECT a FROM t extra garbage ,,").is_err());
        assert!(parse("CREATE TABLE t (a INT, PRIMARY KEY(a)) DISTRIBUTE BY MAGIC(a)").is_err());
    }

    #[test]
    fn qualified_columns_and_is_null() {
        let s = parse("SELECT t.a FROM t WHERE t.b IS NOT NULL AND a IN (1, 2, 3)").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(
                    &sel.items[0],
                    SelectItem::Expr(PExpr::Col(Some(q), c)) if q == "t" && c == "a"
                ));
                assert!(sel.filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }
}
