//! The shared memory: identical locations under one uniform instruction set.

use crate::{CellState, InstructionSet, ModelError, Op, Result, Value};
use std::fmt;

/// How many locations a memory has.
///
/// Theorem 9.3's track algorithm genuinely needs an *unbounded* number of
/// locations (that is the content of Table 1's `∞` row), so the machine
/// supports lazily-grown memory as well as fixed-size memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locations {
    /// Exactly this many locations; out-of-range access is an error.
    Bounded(usize),
    /// Locations are allocated on first touch.
    Unbounded,
}

/// A description of the memory a protocol needs: the uniform instruction set,
/// the number of locations, and their initial contents.
///
/// # Examples
///
/// ```
/// use cbh_model::{InstructionSet, Memory, MemorySpec, Value};
///
/// // Theorem 3.3's multiply-counter memory: one word initialised to 1.
/// let spec = MemorySpec::bounded(InstructionSet::ReadMultiply, 1).with_initial(vec![Value::one()]);
/// let mem = Memory::new(&spec);
/// assert_eq!(mem.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemorySpec {
    iset: InstructionSet,
    locations: Locations,
    /// Initial values for the first `initial.len()` word locations.
    initial: Vec<Value>,
    /// Initial value of every other word location.
    default: Value,
    /// Per-location buffer capacities overriding the instruction set's
    /// uniform `ℓ` (the heterogeneous setting of Section 6.2).
    buffer_caps: Option<Vec<usize>>,
}

impl MemorySpec {
    /// A memory of `count` locations, words initialised to integer 0 (buffers
    /// to empty).
    pub fn bounded(iset: InstructionSet, count: usize) -> Self {
        MemorySpec {
            iset,
            locations: Locations::Bounded(count),
            initial: Vec::new(),
            default: Value::zero(),
            buffer_caps: None,
        }
    }

    /// An unbounded memory, words initialised to integer 0.
    pub fn unbounded(iset: InstructionSet) -> Self {
        MemorySpec {
            iset,
            locations: Locations::Unbounded,
            initial: Vec::new(),
            default: Value::zero(),
            buffer_caps: None,
        }
    }

    /// Overrides the initial values of the first locations.
    pub fn with_initial(mut self, initial: Vec<Value>) -> Self {
        self.initial = initial;
        self
    }

    /// Overrides the default initial word value for all other locations.
    pub fn with_default(mut self, default: Value) -> Self {
        self.default = default;
        self
    }

    /// Gives each buffer location its own capacity — the *heterogeneous*
    /// setting at the end of Section 6.2 (the paper's lower bound becomes
    /// "the capacities must sum to at least `n−1`"). Locations beyond the
    /// vector keep the instruction set's uniform `ℓ`.
    ///
    /// Ignored on non-buffer instruction sets.
    pub fn with_buffer_capacities(mut self, caps: Vec<usize>) -> Self {
        self.buffer_caps = Some(caps);
        self
    }

    /// The capacity of buffer location `loc`, if this is a buffer memory.
    pub fn buffer_capacity_at(&self, loc: usize) -> Option<usize> {
        let uniform = self.iset.buffer_capacity()?;
        Some(
            self.buffer_caps
                .as_ref()
                .and_then(|caps| caps.get(loc).copied())
                .unwrap_or(uniform),
        )
    }

    /// The uniform instruction set.
    pub fn iset(&self) -> InstructionSet {
        self.iset
    }

    /// The location count policy.
    pub fn locations(&self) -> Locations {
        self.locations
    }

    /// The bounded location count, if any.
    pub fn bounded_len(&self) -> Option<usize> {
        match self.locations {
            Locations::Bounded(k) => Some(k),
            Locations::Unbounded => None,
        }
    }

    fn cell_at(&self, loc: usize) -> CellState {
        if let Some(cap) = self.buffer_capacity_at(loc) {
            CellState::buffer(cap)
        } else {
            CellState::word(self.initial.get(loc).unwrap_or(&self.default).clone())
        }
    }

    /// The cell a location beyond the initial allocation starts as — what
    /// unbounded memories grow by. [`Memory`] and the threaded
    /// `SharedMemory` backend must agree on this exactly, or their space
    /// accounting and read results diverge on protocols with non-default
    /// initial values.
    pub fn grown_cell(&self) -> CellState {
        self.cell_at(usize::MAX)
    }
}

/// The shared memory of the machine.
///
/// All state lives in [`CellState`] cells; [`Memory::apply`] enforces the
/// uniformity requirement, bounds, and multi-assignment well-formedness, and
/// counts the locations that have ever been touched (the quantity Table 1
/// measures).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Memory {
    spec_iset: InstructionSet,
    growable: bool,
    cells: Vec<CellState>,
    default_cell: CellState,
    touched: usize,
}

impl Memory {
    /// Builds the initial memory described by `spec`.
    pub fn new(spec: &MemorySpec) -> Self {
        let count = match spec.locations {
            Locations::Bounded(k) => k,
            Locations::Unbounded => spec.initial.len(),
        };
        let cells = (0..count).map(|i| spec.cell_at(i)).collect();
        Memory {
            spec_iset: spec.iset,
            growable: matches!(spec.locations, Locations::Unbounded),
            cells,
            default_cell: spec.grown_cell(),
            touched: 0,
        }
    }

    /// The uniform instruction set of this memory.
    pub fn iset(&self) -> InstructionSet {
        self.spec_iset
    }

    /// Number of currently allocated locations.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if no locations are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of locations ever targeted by an instruction — the space
    /// measure of the hierarchy.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// A view of location `loc`, if allocated.
    pub fn cell(&self, loc: usize) -> Option<&CellState> {
        self.cells.get(loc)
    }

    /// Applies one atomic step and returns its result.
    ///
    /// Multiple assignments return [`Value::Bot`] (writes return nothing).
    ///
    /// # Errors
    ///
    /// - [`ModelError::UnsupportedInstruction`] on a uniformity violation;
    /// - [`ModelError::OutOfBounds`] beyond a bounded memory;
    /// - [`ModelError::DuplicateMultiAssignTarget`] if a multiple assignment
    ///   lists a location twice;
    /// - [`ModelError::TypeMismatch`] from the cell semantics.
    pub fn apply(&mut self, op: &Op) -> Result<Value> {
        match op {
            Op::Single { loc, instr } => {
                self.spec_iset.check(instr)?;
                self.ensure(*loc)?;
                self.note_touch(*loc);
                self.cells[*loc].apply(instr)
            }
            Op::MultiAssign(writes) => {
                for (i, (loc, _)) in writes.iter().enumerate() {
                    if writes[..i].iter().any(|(l, _)| l == loc) {
                        return Err(ModelError::DuplicateMultiAssignTarget { loc: *loc });
                    }
                }
                // Validate all targets before mutating anything: the step is atomic.
                for (loc, v) in writes {
                    let probe = if self.spec_iset.buffer_capacity().is_some() {
                        crate::Instruction::BufferWrite(v.clone())
                    } else {
                        crate::Instruction::Write(v.clone())
                    };
                    self.spec_iset.check(&probe)?;
                    self.ensure(*loc)?;
                }
                for (loc, v) in writes {
                    self.note_touch(*loc);
                    self.cells[*loc].multi_assign_write(v.clone());
                }
                Ok(Value::Bot)
            }
        }
    }

    fn ensure(&mut self, loc: usize) -> Result<()> {
        if loc < self.cells.len() {
            return Ok(());
        }
        if self.growable {
            // Growth is geometric-free: allocate exactly up to `loc` so the
            // `len()` statistic stays meaningful for space accounting.
            while self.cells.len() <= loc {
                self.cells.push(self.default_cell.clone());
            }
            Ok(())
        } else {
            Err(ModelError::OutOfBounds {
                loc,
                len: self.cells.len(),
            })
        }
    }

    fn note_touch(&mut self, loc: usize) {
        // `touched` counts distinct locations; cells record a touch lazily by
        // comparing against the high-water mark of touched prefix. Distinct
        // tracking uses the allocation itself for unbounded memories and a
        // saturating max for bounded ones.
        self.touched = self.touched.max(loc + 1);
    }

    /// `true` if locations are allocated on first touch (the packed encoder
    /// needs the growth policy and default cell to mirror [`Memory::apply`]).
    pub(crate) fn growable(&self) -> bool {
        self.growable
    }

    /// The cell a grown location starts as.
    pub(crate) fn default_cell(&self) -> &CellState {
        &self.default_cell
    }

    /// Rebuilds a memory from its semantic parts — the unpacking half of the
    /// packed representation. `touched` must be a value [`Memory::apply`]
    /// could have produced for these cells.
    pub(crate) fn from_raw_parts(
        iset: InstructionSet,
        growable: bool,
        cells: Vec<CellState>,
        default_cell: CellState,
        touched: usize,
    ) -> Self {
        Memory {
            spec_iset: iset,
            growable,
            cells,
            default_cell,
            touched,
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory{{{}; ", self.spec_iset)?;
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}:{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instruction as I;

    #[test]
    fn uniformity_is_enforced() {
        let spec = MemorySpec::bounded(InstructionSet::MaxRegister, 2);
        let mut mem = Memory::new(&spec);
        assert!(mem.apply(&Op::read(0)).is_err(), "read() is not read-max()");
        assert!(mem.apply(&Op::single(0, I::ReadMax)).is_ok());
    }

    #[test]
    fn bounded_memory_rejects_out_of_range() {
        let spec = MemorySpec::bounded(InstructionSet::ReadWrite, 2);
        let mut mem = Memory::new(&spec);
        assert_eq!(
            mem.apply(&Op::read(2)),
            Err(ModelError::OutOfBounds { loc: 2, len: 2 })
        );
    }

    #[test]
    fn unbounded_memory_grows_on_touch() {
        let spec = MemorySpec::unbounded(InstructionSet::ReadWrite1);
        let mut mem = Memory::new(&spec);
        assert_eq!(mem.len(), 0);
        mem.apply(&Op::single(17, I::write(1))).unwrap();
        assert_eq!(mem.len(), 18);
        assert_eq!(mem.touched(), 18);
        assert_eq!(mem.apply(&Op::read(17)).unwrap(), Value::int(1));
        assert_eq!(mem.apply(&Op::read(3)).unwrap(), Value::int(0));
    }

    #[test]
    fn initial_values_and_default() {
        let spec = MemorySpec::bounded(InstructionSet::ReadMultiply, 3)
            .with_initial(vec![Value::one()])
            .with_default(Value::int(9));
        let mut mem = Memory::new(&spec);
        assert_eq!(mem.apply(&Op::read(0)).unwrap(), Value::one());
        assert_eq!(mem.apply(&Op::read(1)).unwrap(), Value::int(9));
    }

    #[test]
    fn buffer_memory_builds_buffer_cells() {
        let spec = MemorySpec::bounded(InstructionSet::Buffer(2), 1);
        let mut mem = Memory::new(&spec);
        mem.apply(&Op::single(0, I::BufferWrite(Value::int(5)))).unwrap();
        assert_eq!(
            mem.apply(&Op::single(0, I::BufferRead)).unwrap(),
            Value::seq([Value::Bot, Value::int(5)])
        );
    }

    #[test]
    fn multi_assign_is_atomic_and_validated() {
        let spec = MemorySpec::bounded(InstructionSet::Buffer(1), 3);
        let mut mem = Memory::new(&spec);
        mem.apply(&Op::multi_assign([(0, Value::int(1)), (2, Value::int(2))]))
            .unwrap();
        assert_eq!(
            mem.apply(&Op::single(2, I::BufferRead)).unwrap(),
            Value::seq([Value::int(2)])
        );
        let dup = Op::multi_assign([(1, Value::int(1)), (1, Value::int(2))]);
        assert_eq!(
            mem.apply(&dup),
            Err(ModelError::DuplicateMultiAssignTarget { loc: 1 })
        );
        // Out-of-bounds target leaves nothing mutated.
        let before = mem.clone();
        let bad = Op::multi_assign([(0, Value::int(9)), (7, Value::int(9))]);
        assert!(mem.apply(&bad).is_err());
        assert_eq!(mem, before, "atomicity: failed multi-assign has no effect");
    }

    #[test]
    fn multi_assign_on_plain_words_requires_write_in_set() {
        let spec = MemorySpec::bounded(InstructionSet::ReadWrite, 2);
        let mut mem = Memory::new(&spec);
        mem.apply(&Op::multi_assign([(0, Value::int(4)), (1, Value::int(5))]))
            .unwrap();
        assert_eq!(mem.apply(&Op::read(1)).unwrap(), Value::int(5));
        // ... but not on a set without general write.
        let spec = MemorySpec::bounded(InstructionSet::ReadTas, 2);
        let mut mem = Memory::new(&spec);
        assert!(mem.apply(&Op::multi_assign([(0, Value::int(4))])).is_err());
    }

    #[test]
    fn touched_tracks_space_usage() {
        let spec = MemorySpec::bounded(InstructionSet::ReadWrite, 10);
        let mut mem = Memory::new(&spec);
        assert_eq!(mem.touched(), 0);
        mem.apply(&Op::read(4)).unwrap();
        assert_eq!(mem.touched(), 5);
        mem.apply(&Op::read(1)).unwrap();
        assert_eq!(mem.touched(), 5);
    }
}
