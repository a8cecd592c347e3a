//! System assembly: turn a parsed (and transformed) [`Program`] into a
//! ready-to-run simulation world.

use crate::analyze::runs_forever;
use crate::ast::Program;
use crate::interp::ProgramBehavior;
use crate::transform::{transform_program, TransformError, Transformed};
use opcsp_core::{CoreConfig, ProcessId};
use opcsp_sim::{Behavior, SimBuilder, SimConfig, SimResult};
use opcsp_workloads::catalog::{self, place, Roster, Spec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A compiled system: one behavior per process, name→id bindings, and the
/// fork-site reports from the transformation.
pub struct System {
    pub transformed: Transformed,
    pub bindings: BTreeMap<String, ProcessId>,
}

impl System {
    /// Compile a program: run the optimistic transformation and assign
    /// process ids in definition order (X, Y, Z, W... in the figures).
    pub fn compile(program: &Program) -> Result<System, TransformError> {
        let transformed = transform_program(program)?;
        let bindings = transformed
            .program
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), ProcessId(i as u32)))
            .collect();
        Ok(System {
            transformed,
            bindings,
        })
    }

    /// Process id bound to a name.
    pub fn pid(&self, name: &str) -> ProcessId {
        self.bindings[name]
    }

    /// The program's processes in definition order, each one a client
    /// unless its body loops forever ([`crate::analyze::runs_forever`]):
    /// the runtime ends a run when every client has finished and the
    /// network has drained; ever-looping servers are halted by shutdown.
    pub fn roster(&self) -> Roster {
        let procs = &self.transformed.program.procs;
        procs
            .iter()
            .map(|proc| {
                let b = ProgramBehavior::new(proc.clone(), self.bindings.clone());
                (Arc::new(b) as Arc<dyn Behavior>, !runs_forever(&proc.body))
            })
            .collect()
    }

    /// The program as a catalogue world labelled `label` (its source path):
    /// run, checked ([`Spec::check`]: Theorem 1 by the committed-schedule
    /// replay) and explored as every hand-written world is.
    pub fn spec(&self, label: &str) -> Spec {
        Spec::Program(catalog::Program {
            roster: self.roster(),
            names: self.bindings.iter().map(|(n, p)| (*p, n.clone())).collect(),
            label: label.to_string(),
            core: CoreConfig::default(),
        })
    }

    /// The compiled system's simulation world, not yet built.
    pub fn builder(&self, cfg: SimConfig) -> SimBuilder {
        place(&self.roster(), SimBuilder::new(cfg))
    }

    /// Compile-and-run convenience.
    pub fn run(&self, cfg: SimConfig) -> SimResult {
        self.builder(cfg).build().run()
    }
}

/// Parse, transform, and run a source program in one call.
///
/// ```
/// use opcsp_lang::run_source;
/// use opcsp_sim::SimConfig;
///
/// let result = run_source(
///     r#"
///     process Client {
///         parallelize guess ok = true {
///             ok = call Server(1) : "C1";
///         } then {
///             if ok { output "done"; }
///         }
///     }
///     process Server { while true { receive q; reply true; } }
///     "#,
///     SimConfig::default(),
/// ).unwrap();
/// assert_eq!(result.external.len(), 1);
/// assert!(result.unresolved.is_empty());
/// ```
pub fn run_source(src: &str, cfg: SimConfig) -> Result<SimResult, Box<dyn std::error::Error>> {
    let program = crate::parser::parse_program(src)?;
    let sys = System::compile(&program)?;
    Ok(sys.run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn compile_binds_ids_in_definition_order() {
        let p = parse_program("process X { } process Y { } process Z { }").unwrap();
        let s = System::compile(&p).unwrap();
        assert_eq!(s.pid("X"), ProcessId(0));
        assert_eq!(s.pid("Z"), ProcessId(2));
    }

    #[test]
    fn compile_propagates_transform_errors() {
        let p = parse_program("process X { parallelize { a = call X(1); } then { output a; } }")
            .unwrap();
        assert!(System::compile(&p).is_err());
    }
}
