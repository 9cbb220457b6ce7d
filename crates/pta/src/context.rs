//! Context-sensitivity policies for the points-to analysis.
//!
//! Two policies exist: Andersen's context-insensitive analysis and the
//! paper's container sensitivity. Receiver contexts nest at most
//! `MAX_CONTEXT_DEPTH` (3) deep. Object sensitivity over every class is
//! container sensitivity with every class listed as a container.

use tir::{ClassId, Program};

/// Maximum nesting depth of context-qualified locations: a method
/// dispatched on a receiver already qualified this deep runs without a
/// receiver context, which stops containers-of-containers recursion.
pub(crate) const MAX_CONTEXT_DEPTH: usize = 3;

/// How method analysis and heap abstraction are context-qualified.
///
/// The paper's evaluation uses WALA's *0-1-Container-CFA*: Andersen's
/// analysis with one level of object sensitivity applied to container
/// classes. [`ContextPolicy::ContainerSensitive`] reproduces that shape,
/// with receiver contexts nested at most three deep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContextPolicy {
    /// Classic context-insensitive Andersen's analysis.
    Insensitive,
    /// Receiver-object sensitivity for the listed container classes (and
    /// their subclasses). Allocations inside a container method instance are
    /// qualified by the receiver's abstract location, producing names like
    /// `vec0.arr1`.
    ContainerSensitive {
        /// The container base classes.
        containers: Vec<ClassId>,
    },
}

impl ContextPolicy {
    /// Builds a [`ContextPolicy::ContainerSensitive`] from class names,
    /// ignoring names not present in `program`.
    pub fn containers_named(program: &Program, names: &[&str]) -> ContextPolicy {
        let containers = names.iter().filter_map(|n| program.class_by_name(n)).collect();
        ContextPolicy::ContainerSensitive { containers }
    }

    /// True if methods of `class` are analyzed per receiver location.
    pub fn qualifies(&self, program: &Program, class: ClassId) -> bool {
        match self {
            ContextPolicy::Insensitive => false,
            ContextPolicy::ContainerSensitive { containers } => {
                containers.iter().any(|&c| program.is_subclass(class, c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::ProgramBuilder;

    #[test]
    fn container_policy_covers_subclasses() {
        let mut b = ProgramBuilder::new();
        let vec = b.class("AVec", None);
        let stack = b.class("AStack", Some(vec));
        let other = b.class("Other", None);
        let p = b.finish();

        let policy = ContextPolicy::containers_named(&p, &["AVec", "Missing"]);
        assert!(policy.qualifies(&p, vec));
        assert!(policy.qualifies(&p, stack));
        assert!(!policy.qualifies(&p, other));
    }

    #[test]
    fn insensitive_never_qualifies() {
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        let p = b.finish();
        assert!(!ContextPolicy::Insensitive.qualifies(&p, c));
    }

    #[test]
    fn object_sensitive_always_qualifies() {
        // Object sensitivity is container sensitivity over every class.
        let mut b = ProgramBuilder::new();
        let c = b.class("C", None);
        let d = b.class("D", Some(c));
        let p = b.finish();
        let names: Vec<&str> = p.class_ids().map(|k| p.class(k).name.as_str()).collect();
        let policy = ContextPolicy::containers_named(&p, &names);
        assert!(policy.qualifies(&p, c));
        assert!(policy.qualifies(&p, d));
    }
}
