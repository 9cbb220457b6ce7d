//! The program container: arenas for classes, fields, globals, methods,
//! variables, allocation sites, and commands.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ids::{AllocId, ClassId, CmdId, FieldId, GlobalId, MethodId, VarId};
use crate::lower::Names;
use crate::stmt::{Command, Stmt};

/// A value type: integers or references to a class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// Machine integer (also used for booleans).
    Int,
    /// Reference to an instance of `ClassId` (or a subclass), or null.
    Ref(ClassId),
}

impl Ty {
    /// True if this is a reference type.
    pub fn is_ref(self) -> bool {
        matches!(self, Ty::Ref(_))
    }
}

/// A class declaration.
#[derive(Clone, Debug)]
pub struct Class {
    /// Class name, unique program-wide.
    pub name: String,
    /// Direct superclass; `None` only for the root `Object` class.
    pub superclass: Option<ClassId>,
    /// Fields declared directly on this class.
    pub fields: Vec<FieldId>,
    /// Methods declared directly on this class.
    pub methods: Vec<MethodId>,
}

/// An instance field declaration.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name, unique within its declaring class.
    pub name: String,
    /// Declaring class.
    pub owner: ClassId,
    /// Value type.
    pub ty: Ty,
}

/// A global variable — the encoding of a Java static field.
#[derive(Clone, Debug)]
pub struct Global {
    /// Global name, unique program-wide (conventionally `Class.field`).
    pub name: String,
    /// Value type.
    pub ty: Ty,
}

/// A method declaration with its body.
#[derive(Clone, Debug)]
pub struct Method {
    /// Simple method name (virtual dispatch key within a class chain),
    /// unique within its class, or among the free functions.
    pub name: String,
    /// Declaring class; `None` for free (static) functions.
    pub class: Option<ClassId>,
    /// Parameters in order. For instance methods, `params[0]` is `this`.
    pub params: Vec<VarId>,
    /// All locals, including parameters.
    pub locals: Vec<VarId>,
    /// Return type, if the method returns a value.
    pub ret_ty: Option<Ty>,
    /// The method body. [`Command::Return`] may appear only as the final
    /// command of the body (enforced by [`crate::validate`]).
    pub body: Stmt,
    /// True if the method was deleted by a program edit. Removed methods
    /// stay in the arena (ids remain stable) but are invisible to name
    /// lookup, printing, and validation, and may not be called.
    pub removed: bool,
}

/// A local variable or parameter.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Source name, unique within its method.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Owning method.
    pub method: MethodId,
}

/// An allocation site.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Site name used in diagnostics and points-to graphs (e.g. `vec0`),
    /// unique program-wide, removed sites included.
    pub name: String,
    /// Allocated class ([`Program::array_class`] for arrays).
    pub class: ClassId,
    /// Method containing the allocation.
    pub method: MethodId,
}

/// A whole program: class hierarchy, globals, methods, and an entry point.
///
/// Programs are constructed via [`crate::ProgramBuilder`] or parsed from the
/// textual syntax by [`crate::parse`]. Afterwards only
/// [`crate::apply_edits`] changes one: it appends to the arenas and
/// rewrites method bodies, so an id, once handed out, names the same entity
/// for the program's life.
#[derive(Clone)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) fields: Vec<Field>,
    pub(crate) globals: Vec<Global>,
    pub(crate) methods: Vec<Method>,
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) allocs: Vec<AllocSite>,
    pub(crate) cmds: Vec<Command>,
    pub(crate) cmd_method: Vec<MethodId>,
    pub(crate) entry: Option<MethodId>,
    /// The root class every class derives from.
    pub object_class: ClassId,
    /// The builtin class used for all arrays.
    pub array_class: ClassId,
    /// The synthetic `contents` field modelling all array elements.
    pub contents_field: FieldId,
    /// The synthetic integer `len` field of arrays.
    pub len_field: FieldId,
    pub(crate) names: Arc<Names>,
}

/// Leaves out `names`, an index over the arenas.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("classes", &self.classes)
            .field("fields", &self.fields)
            .field("globals", &self.globals)
            .field("methods", &self.methods)
            .field("vars", &self.vars)
            .field("allocs", &self.allocs)
            .field("cmds", &self.cmds)
            .field("cmd_method", &self.cmd_method)
            .field("entry", &self.entry)
            .field("object_class", &self.object_class)
            .field("array_class", &self.array_class)
            .field("contents_field", &self.contents_field)
            .field("len_field", &self.len_field)
            .finish()
    }
}

impl Program {
    /// The program entry method (the harness `main`).
    ///
    /// # Panics
    ///
    /// Panics if no entry was set.
    pub fn entry(&self) -> MethodId {
        self.entry.expect("program has no entry method")
    }

    /// Entry method if one was declared.
    pub fn entry_opt(&self) -> Option<MethodId> {
        self.entry
    }

    /// Looks up a class by id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks up a field by id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Looks up a global by id.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Looks up a method by id.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Looks up a variable by id.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Looks up an allocation site by id.
    pub fn alloc(&self, id: AllocId) -> &AllocSite {
        &self.allocs[id.index()]
    }

    /// Looks up a command by id.
    pub fn cmd(&self, id: CmdId) -> &Command {
        &self.cmds[id.index()]
    }

    /// The method containing command `id`.
    pub fn cmd_method(&self, id: CmdId) -> MethodId {
        self.cmd_method[id.index()]
    }

    /// Number of commands in the program (a proxy for program size,
    /// reported as "bytecodes" in benchmark tables).
    pub fn num_cmds(&self) -> usize {
        self.cmds.len()
    }

    /// Iterates over all class ids.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> {
        (0..self.classes.len()).map(ClassId::from_index)
    }

    /// Iterates over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> {
        (0..self.methods.len()).map(MethodId::from_index)
    }

    /// Iterates over all global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> {
        (0..self.globals.len()).map(GlobalId::from_index)
    }

    /// Iterates over all allocation-site ids.
    pub fn alloc_ids(&self) -> impl Iterator<Item = AllocId> {
        (0..self.allocs.len()).map(AllocId::from_index)
    }

    /// Iterates over all field ids.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> {
        (0..self.fields.len()).map(FieldId::from_index)
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.names.classes.get(name).copied()
    }

    /// Finds a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.names.globals.get(name).copied()
    }

    /// Finds the live method named `name` declared directly on `class`.
    pub fn method_on(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.class(class).methods.iter().copied().find(|&m| self.method(m).name == name)
    }

    /// Finds a live free function by name.
    pub fn free_function(&self, name: &str) -> Option<MethodId> {
        self.names.functions.get(name).copied()
    }

    /// Resolves a virtual call `name` on dynamic class `class` by walking the
    /// superclass chain.
    pub fn resolve_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.method_on(c, name) {
                return Some(m);
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// Resolves a field named `name` visible on `class` (walking the chain).
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &self.class(c).fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// True if `sub` equals `sup` or transitively derives from it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass;
        }
        false
    }

    /// All classes (transitively) deriving from `base`, including `base`.
    pub fn subclasses(&self, base: ClassId) -> Vec<ClassId> {
        self.class_ids().filter(|&c| self.is_subclass(c, base)).collect()
    }

    /// All fields visible on `class`, including inherited ones.
    pub fn all_fields(&self, class: ClassId) -> Vec<FieldId> {
        let mut out = Vec::new();
        let mut cur = Some(class);
        while let Some(c) = cur {
            out.extend(self.class(c).fields.iter().copied());
            cur = self.class(c).superclass;
        }
        out
    }

    /// A human-readable name for a command, used in diagnostics.
    pub fn describe_cmd(&self, id: CmdId) -> String {
        let m = self.cmd_method(id);
        format!("{}:{}", self.method_name(m), id.0)
    }

    /// Qualified method name (`Class.name` or plain `name`).
    pub fn method_name(&self, id: MethodId) -> String {
        let m = self.method(id);
        match m.class {
            Some(c) => format!("{}.{}", self.class(c).name, m.name),
            None => m.name.clone(),
        }
    }

    /// Commands of a method body in program order.
    pub fn method_cmds(&self, id: MethodId) -> Vec<CmdId> {
        let mut out = Vec::new();
        self.method(id).body.for_each_cmd(&mut |c| out.push(c));
        out
    }

    /// Builds a map from simple method name to all methods with that name
    /// (used by dispatch diagnostics).
    pub fn methods_by_name(&self) -> HashMap<&str, Vec<MethodId>> {
        let mut out: HashMap<&str, Vec<MethodId>> = HashMap::new();
        for id in self.method_ids() {
            if self.method(id).removed {
                continue;
            }
            out.entry(self.method(id).name.as_str()).or_default().push(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::program::Ty;

    #[test]
    fn class_hierarchy_queries() {
        let mut b = ProgramBuilder::new();
        let animal = b.class("Animal", None);
        let dog = b.class("Dog", Some(animal));
        let pug = b.class("Pug", Some(dog));
        let f = b.field(animal, "tag", Ty::Int);
        let p = b.finish();

        assert!(p.is_subclass(pug, animal));
        assert!(p.is_subclass(dog, dog));
        assert!(!p.is_subclass(animal, dog));
        assert_eq!(p.resolve_field(pug, "tag"), Some(f));
        assert_eq!(p.resolve_field(animal, "nope"), None);

        let subs = p.subclasses(dog);
        assert!(subs.contains(&dog) && subs.contains(&pug) && !subs.contains(&animal));
    }

    #[test]
    fn method_resolution_walks_chain() {
        let mut b = ProgramBuilder::new();
        let base = b.class("Base", None);
        let derived = b.class("Derived", Some(base));
        let m_base = b.method(Some(base), "go", &[], None, |mb| {
            mb.ret_void();
        });
        let m_derived = b.method(Some(derived), "go", &[], None, |mb| {
            mb.ret_void();
        });
        let p = b.finish();

        assert_eq!(p.resolve_method(base, "go"), Some(m_base));
        assert_eq!(p.resolve_method(derived, "go"), Some(m_derived));
        assert_eq!(p.resolve_method(derived, "stop"), None);
    }

    #[test]
    fn array_builtins_exist() {
        let b = ProgramBuilder::new();
        let p = b.finish();
        assert_eq!(p.class(p.array_class).name, "Array");
        assert_eq!(p.field(p.contents_field).name, "contents");
        assert_eq!(p.field(p.len_field).ty, Ty::Int);
        assert!(p.is_subclass(p.array_class, p.object_class));
    }
}
