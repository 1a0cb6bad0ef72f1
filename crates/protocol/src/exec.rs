//! Executing `L` transactions against a site's storage engine.
//!
//! The symbolic-table rows computed offline are registered as stored
//! procedures (Section 5.1); at run time the site executes either the full
//! transaction or a partially evaluated row against its local
//! [`homeo_store::Engine`] inside an engine transaction, so that local
//! concurrency control (strict 2PL) and the WAL see every read and write.

use std::collections::BTreeMap;

use homeo_lang::ast::{AExp, BExp, Com, Transaction};
use homeo_lang::ids::{ObjId, ParamId, TempVar};
use homeo_store::{Engine, EngineError, TxnHandle};

/// The observable result of executing a transaction on an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// The values printed, in order.
    pub log: Vec<i64>,
    /// The objects written with their new values.
    pub writes: BTreeMap<ObjId, i64>,
    /// Whether the transaction committed (false: it was aborted because of a
    /// lock conflict, or rejected by the pre-commit check).
    pub committed: bool,
    /// Whether the pre-commit check rejected the transaction. It was
    /// aborted, so none of its writes reached the engine or its WAL.
    pub rejected: bool,
}

impl ExecResult {
    fn aborted(rejected: bool) -> Self {
        ExecResult {
            log: Vec::new(),
            writes: BTreeMap::new(),
            committed: false,
            rejected,
        }
    }
}

/// Errors from engine-backed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The underlying engine rejected an operation.
    Engine(EngineError),
    /// A temporary variable or parameter was unbound.
    Unbound(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Engine(e) => write!(f, "engine error: {e}"),
            ExecError::Unbound(v) => write!(f, "unbound variable `{v}`"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EngineError> for ExecError {
    fn from(e: EngineError) -> Self {
        ExecError::Engine(e)
    }
}

struct ExecCtx<'a> {
    engine: &'a Engine,
    txn: &'a TxnHandle,
    temps: BTreeMap<TempVar, i64>,
    params: BTreeMap<ParamId, i64>,
    log: Vec<i64>,
    writes: BTreeMap<ObjId, i64>,
}

impl ExecCtx<'_> {
    fn aexp(&mut self, e: &AExp) -> Result<i64, ExecError> {
        Ok(match e {
            AExp::Const(n) => *n,
            AExp::Param(p) => *self
                .params
                .get(p)
                .ok_or_else(|| ExecError::Unbound(p.to_string()))?,
            AExp::Var(v) => *self
                .temps
                .get(v)
                .ok_or_else(|| ExecError::Unbound(v.to_string()))?,
            AExp::Read(x) => self.engine.read(self.txn, x.as_str())?,
            AExp::Add(a, b) => self.aexp(a)?.wrapping_add(self.aexp(b)?),
            AExp::Mul(a, b) => self.aexp(a)?.wrapping_mul(self.aexp(b)?),
            AExp::Neg(a) => self.aexp(a)?.wrapping_neg(),
        })
    }

    fn bexp(&mut self, b: &BExp) -> Result<bool, ExecError> {
        Ok(match b {
            BExp::True => true,
            BExp::False => false,
            BExp::Cmp(l, op, r) => op.eval(self.aexp(l)?, self.aexp(r)?),
            BExp::And(l, r) => self.bexp(l)? && self.bexp(r)?,
            BExp::Not(inner) => !self.bexp(inner)?,
        })
    }

    fn com(&mut self, c: &Com) -> Result<(), ExecError> {
        match c {
            Com::Skip => Ok(()),
            Com::Assign(v, e) => {
                let value = self.aexp(e)?;
                self.temps.insert(v.clone(), value);
                Ok(())
            }
            Com::Write(x, e) => {
                let value = self.aexp(e)?;
                self.engine.write(self.txn, x.as_str(), value)?;
                self.writes.insert(x.clone(), value);
                Ok(())
            }
            Com::Print(e) => {
                let value = self.aexp(e)?;
                self.log.push(value);
                Ok(())
            }
            Com::Seq(a, b) => {
                self.com(a)?;
                self.com(b)
            }
            Com::If(b, t, e) => {
                if self.bexp(b)? {
                    self.com(t)
                } else {
                    self.com(e)
                }
            }
        }
    }
}

/// Executes `txn` with positional `args` against `engine` inside a fresh
/// engine transaction. Lock conflicts abort the transaction and are reported
/// through `committed: false` in the result (the caller decides whether to
/// retry).
///
/// `admit` is the pre-commit check: it sees the transaction's staged writes
/// once the body has run, while the transaction still holds its locks. When
/// it returns `false` the transaction aborts instead of committing
/// (`rejected: true`). Pass `|_| true` to commit unconditionally.
pub fn run_on_engine(
    engine: &Engine,
    txn: &Transaction,
    args: &[i64],
    admit: impl FnOnce(&BTreeMap<ObjId, i64>) -> bool,
) -> Result<ExecResult, ExecError> {
    let mut handle = engine.begin();
    let params: BTreeMap<ParamId, i64> = txn
        .params
        .iter()
        .cloned()
        .zip(args.iter().copied())
        .collect();
    if params.len() != txn.params.len() || args.len() != txn.params.len() {
        engine.abort(&mut handle).ok();
        return Err(ExecError::Unbound(format!(
            "{} expects {} arguments, got {}",
            txn.name,
            txn.params.len(),
            args.len()
        )));
    }
    let mut ctx = ExecCtx {
        engine,
        txn: &handle,
        temps: BTreeMap::new(),
        params,
        log: Vec::new(),
        writes: BTreeMap::new(),
    };
    match ctx.com(&txn.body) {
        Ok(()) if admit(&ctx.writes) => {
            let log = std::mem::take(&mut ctx.log);
            let writes = std::mem::take(&mut ctx.writes);
            engine.commit(&mut handle)?;
            Ok(ExecResult {
                log,
                writes,
                committed: true,
                rejected: false,
            })
        }
        Ok(()) => {
            engine.abort(&mut handle)?;
            Ok(ExecResult::aborted(true))
        }
        Err(ExecError::Engine(EngineError::WouldBlock { .. })) => {
            engine.abort(&mut handle)?;
            Ok(ExecResult::aborted(false))
        }
        Err(e) => {
            engine.abort(&mut handle).ok();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homeo_lang::programs;

    #[test]
    fn engine_execution_matches_pure_evaluation() {
        let engine = Engine::new();
        engine.poke("x", 10);
        engine.poke("y", 13);
        let txn = programs::t1();
        let result = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert!(result.committed);
        assert_eq!(engine.peek("x"), 9);
        assert_eq!(result.writes.get(&ObjId::new("x")), Some(&9));

        // Cross-check against the pure evaluator.
        let db = homeo_lang::Database::from_pairs([("x", 10), ("y", 13)]);
        let pure = homeo_lang::Evaluator::eval(&txn, &db, &[]).unwrap();
        assert_eq!(pure.database.get(&"x".into()), engine.peek("x"));
        assert_eq!(pure.log, result.log);
    }

    #[test]
    fn parameters_are_bound_positionally() {
        let engine = Engine::new();
        engine.poke("stock[5]", 3);
        let txn = programs::micro_order_for_item(5, 100);
        let r = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert!(r.committed);
        assert_eq!(engine.peek("stock[5]"), 2);
        // Wrong arity is an error, not a silent misbinding.
        let err = run_on_engine(&engine, &txn, &[1], |_| true).unwrap_err();
        assert!(matches!(err, ExecError::Unbound(_)));
    }

    #[test]
    fn lock_conflicts_surface_as_aborts() {
        let engine = Engine::new();
        engine.poke("x", 1);
        // Hold an exclusive lock on x with an external transaction.
        let blocker = engine.begin();
        engine.write(&blocker, "x", 99).unwrap();
        let txn = programs::remote_write_example();
        let result = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert!(!result.committed);
        // The blocked transaction left no trace.
        assert_eq!(engine.peek("x"), 1);
    }

    #[test]
    fn a_rejected_transaction_leaves_no_trace() {
        let engine = Engine::new();
        engine.write_logged("x", 10).unwrap();
        let txn = programs::t1();
        let mut staged = BTreeMap::new();
        let r = run_on_engine(&engine, &txn, &[], |writes| {
            staged = writes.clone();
            false
        })
        .unwrap();
        assert!(!r.committed && r.rejected);
        // The check saw the staged write; the engine never did.
        assert_eq!(staged.get(&ObjId::new("x")), Some(&9));
        assert_eq!(engine.peek("x"), 10);
        engine.crash_and_recover();
        assert_eq!(engine.peek("x"), 10, "the rejected write is not in the WAL");
    }

    #[test]
    fn print_log_is_collected_in_order() {
        use homeo_lang::builder::*;
        let engine = Engine::new();
        let txn = homeo_lang::Transaction::simple(
            "logger",
            seq([print(num(1)), write("a", num(5)), print(read("a"))]),
        );
        let r = run_on_engine(&engine, &txn, &[], |_| true).unwrap();
        assert_eq!(r.log, vec![1, 5]);
    }
}
