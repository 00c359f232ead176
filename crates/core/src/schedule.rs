//! Merge schedules: the output of every compaction strategy.

use crate::tree::TreeNode;
use crate::{Cardinality, CostModel, Error, KeySet, MergeTree};

/// One merge operation: the *slots* it reads.
///
/// Slots number the sets materialized during a compaction run: slots
/// `0..n` are the initial sstables and the `i`-th operation's output is
/// slot `n + i`. Later operations may therefore reference earlier
/// outputs. This is the same slot convention the `lsm-engine` crate's
/// physical `CompactionStep` uses, so schedules can be executed directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOp {
    /// Slot indices of the sets this operation merges (2 ≤ len ≤ k).
    pub inputs: Vec<usize>,
}

impl MergeOp {
    /// Convenience constructor.
    #[must_use]
    pub fn new(inputs: Vec<usize>) -> Self {
        Self { inputs }
    }
}

/// An ordered sequence of merge operations reducing `n` initial sets to
/// one final set.
///
/// # Examples
///
/// ```
/// use compaction_core::{KeySet, MergeOp, MergeSchedule};
///
/// let sets = vec![
///     KeySet::from_iter([1u64, 2]),
///     KeySet::from_iter([2u64, 3]),
///     KeySet::from_iter([4u64]),
/// ];
/// // Merge sets 0 and 1 (output = slot 3), then merge slot 3 with set 2.
/// let schedule = MergeSchedule::new(3, 2, vec![
///     MergeOp::new(vec![0, 1]),
///     MergeOp::new(vec![3, 2]),
/// ])?;
/// assert_eq!(schedule.cost(&sets), 2 + 2 + 1 + 3 + 4);
/// assert_eq!(schedule.final_set(&sets).len(), 4);
/// # Ok::<(), compaction_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSchedule {
    n_initial: usize,
    fanin: usize,
    ops: Vec<MergeOp>,
}

impl MergeSchedule {
    /// Creates and validates a schedule over `n_initial` sets with
    /// per-operation fan-in at most `fanin`.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyInput`] if `n_initial` is zero.
    /// * [`Error::InvalidFanIn`] if `fanin < 2`.
    /// * [`Error::InvalidOpArity`] if an operation merges fewer than 2 or
    ///   more than `fanin` sets.
    /// * [`Error::InvalidSlot`] if an operation references an unknown or
    ///   already-consumed slot.
    /// * [`Error::IncompleteSchedule`] if the operations do not reduce the
    ///   collection to exactly one set.
    pub fn new(n_initial: usize, fanin: usize, ops: Vec<MergeOp>) -> Result<Self, Error> {
        if n_initial == 0 {
            return Err(Error::EmptyInput);
        }
        if fanin < 2 {
            return Err(Error::InvalidFanIn { requested: fanin });
        }
        let schedule = Self {
            n_initial,
            fanin,
            ops,
        };
        schedule.validate()?;
        Ok(schedule)
    }

    fn validate(&self) -> Result<(), Error> {
        let total_slots = self.n_initial + self.ops.len();
        let mut live = vec![false; total_slots];
        for slot in live.iter_mut().take(self.n_initial) {
            *slot = true;
        }
        let mut live_count = self.n_initial;
        for (op_index, op) in self.ops.iter().enumerate() {
            if op.inputs.len() < 2 || op.inputs.len() > self.fanin {
                return Err(Error::InvalidOpArity {
                    op_index,
                    arity: op.inputs.len(),
                    fanin: self.fanin,
                });
            }
            // Inputs must be distinct live slots below the output slot.
            let output_slot = self.n_initial + op_index;
            let mut seen = Vec::with_capacity(op.inputs.len());
            for &slot in &op.inputs {
                if slot >= output_slot || !live[slot] || seen.contains(&slot) {
                    return Err(Error::InvalidSlot { op_index, slot });
                }
                seen.push(slot);
            }
            for &slot in &op.inputs {
                live[slot] = false;
            }
            live[output_slot] = true;
            live_count = live_count - op.inputs.len() + 1;
        }
        if live_count != 1 {
            return Err(Error::IncompleteSchedule {
                remaining: live_count,
            });
        }
        Ok(())
    }

    /// Number of initial sets.
    #[must_use]
    pub fn n_initial(&self) -> usize {
        self.n_initial
    }

    /// The fan-in bound `k`.
    #[must_use]
    pub fn fanin(&self) -> usize {
        self.fanin
    }

    /// The merge operations in execution order.
    #[must_use]
    pub fn ops(&self) -> &[MergeOp] {
        &self.ops
    }

    /// Number of merge operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` for the degenerate single-set schedule with no
    /// merges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Materializes the set produced by every operation, in order.
    /// `outputs()[i]` is the label of slot `n_initial + i`.
    #[must_use]
    pub fn outputs(&self, sets: &[KeySet]) -> Vec<KeySet> {
        let mut outputs = Vec::with_capacity(self.ops.len());
        self.replay(sets, |_, output| outputs.push(output.clone()));
        outputs
    }

    /// Executes the schedule over `sets` once, calling `visit(inputs,
    /// output)` per operation in order; no input set is copied.
    pub(crate) fn replay(&self, sets: &[KeySet], mut visit: impl FnMut(&[&KeySet], &KeySet)) {
        let mut made: Vec<KeySet> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let slot = |s: usize| sets.get(s).unwrap_or_else(|| &made[s - sets.len()]);
            let inputs: Vec<&KeySet> = op.inputs.iter().map(|&s| slot(s)).collect();
            let merged = KeySet::union_many(inputs.iter().copied());
            visit(&inputs, &merged);
            made.push(merged);
        }
    }

    /// The single set left after executing the whole schedule. For an
    /// empty schedule this is the (single) initial set.
    #[must_use]
    pub fn final_set(&self, sets: &[KeySet]) -> KeySet {
        self.outputs(sets)
            .into_iter()
            .last()
            .unwrap_or_else(|| sets.first().cloned().unwrap_or_default())
    }

    /// The paper's simplified cost (eq. 2.1): the sum of `model.cost` over
    /// *every* node of the merge tree — each initial set once plus every
    /// merge output once.
    #[must_use]
    pub fn cost_with<M: CostModel>(&self, sets: &[KeySet], model: &M) -> u64 {
        let mut total: u64 = sets.iter().map(|s| model.cost(s)).sum();
        self.replay(sets, |_, output| total += model.cost(output));
        total
    }

    /// [`MergeSchedule::cost_with`] under the default cardinality model.
    #[must_use]
    pub fn cost(&self, sets: &[KeySet]) -> u64 {
        self.cost_with(sets, &Cardinality)
    }

    /// The paper's `cost_actual`: for every merge operation, the sizes of
    /// the inputs read plus the output written. Leaves and the root are
    /// counted once; intermediate outputs twice (once written, once later
    /// read), matching Section 2.
    #[must_use]
    pub fn cost_actual_with<M: CostModel>(&self, sets: &[KeySet], model: &M) -> u64 {
        let mut total = 0u64;
        self.replay(sets, |inputs, output| {
            total += inputs.iter().map(|s| model.cost(s)).sum::<u64>() + model.cost(output);
        });
        total
    }

    /// [`MergeSchedule::cost_actual_with`] under the cardinality model.
    #[must_use]
    pub fn cost_actual(&self, sets: &[KeySet]) -> u64 {
        self.cost_actual_with(sets, &Cardinality)
    }

    /// The per-element reformulation of the cost (eq. 2.2): for each key
    /// `x`, `|T(x)| + 1` where `T(x)` is the minimal subtree spanning all
    /// nodes whose label contains `x`. Only defined for binary schedules
    /// under the cardinality model; used to cross-check
    /// [`MergeSchedule::cost`] in tests.
    #[must_use]
    pub fn cost_reformulated(&self, sets: &[KeySet]) -> u64 {
        // Because every node containing x forms a connected subtree whose
        // root is the first merge that contains x (or x's unique leaf if
        // never merged... but every schedule ends in one set, so the
        // spanning subtree runs from x's leaves up to the last node
        // counted), the contribution of x equals the number of nodes
        // whose label contains x. Summing node sizes per element is
        // exactly eq. 2.1, so we count per element for the cross-check.
        let mut total = 0u64;
        let outputs = self.outputs(sets);
        let all_nodes: Vec<&KeySet> = sets.iter().chain(outputs.iter()).collect();
        let universe = KeySet::union_many(sets.iter());
        for x in universe.iter() {
            let appearances = all_nodes.iter().filter(|s| s.contains(x)).count() as u64;
            total += appearances;
        }
        total
    }

    /// Lowers the schedule to raw *slot steps*: one `Vec<usize>` of input
    /// slots per merge operation, in execution order.
    ///
    /// This is the physical-replay contract shared with the `lsm-engine`
    /// crate: slots `0..n_initial` are the live sstables in manifest
    /// order and step `i`'s output is slot `n_initial + i`, so the steps
    /// can be executed directly against real tables without translation.
    #[must_use]
    pub fn slot_steps(&self) -> Vec<Vec<usize>> {
        self.ops.iter().map(|op| op.inputs.clone()).collect()
    }

    /// Groups the operations into *dependency waves*: operation `i` is in
    /// wave `w` (1-based) if every input is an initial set or the output
    /// of an operation in a wave `< w`. Operations within one wave touch
    /// disjoint slots and can therefore execute concurrently; waves must
    /// run in order. Returns the op indices of each wave, ascending.
    ///
    /// BALANCETREE schedules produce `⌈log_k n⌉` waves of independent
    /// merges (the parallelism the paper exploits in Section 5);
    /// caterpillar schedules degenerate to one op per wave.
    #[must_use]
    pub fn dependency_waves(&self) -> Vec<Vec<usize>> {
        dependency_waves(
            self.n_initial,
            self.ops.iter().map(|op| op.inputs.as_slice()),
        )
    }

    /// The tree view of this schedule (Section 2): leaves in slot order,
    /// one internal node per merge operation.
    #[must_use]
    pub fn to_tree(&self) -> MergeTree {
        let mut nodes: Vec<TreeNode> = (0..self.n_initial)
            .map(|leaf_index| TreeNode::Leaf { leaf_index })
            .collect();
        for op in &self.ops {
            nodes.push(TreeNode::Internal {
                children: op.inputs.clone(),
            });
        }
        let root = nodes.len().saturating_sub(1);
        let root = if self.ops.is_empty() { 0 } else { root };
        MergeTree::from_parts(nodes, root)
    }
}

/// The one wave grouping behind [`MergeSchedule::dependency_waves`] and
/// the engine's parallel executor: `step_inputs` yields each step's
/// input slots in execution order, slots `0..n_initial` are the initial
/// sets and step `i` writes slot `n_initial + i`. Step `i` lands in the
/// first wave after the latest wave any of its inputs was produced in;
/// a slot no step has produced yet counts as initial (callers validate
/// schedules separately). Returns the step indices of each wave,
/// ascending.
#[must_use]
pub fn dependency_waves<'a>(
    n_initial: usize,
    step_inputs: impl IntoIterator<Item = &'a [usize]>,
) -> Vec<Vec<usize>> {
    // Wave of each slot: initial sets are wave 0.
    let mut slot_wave = vec![0usize; n_initial];
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for (i, inputs) in step_inputs.into_iter().enumerate() {
        let wave = inputs
            .iter()
            .map(|&s| slot_wave.get(s).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
            + 1;
        slot_wave.push(wave);
        if waves.len() < wave {
            waves.resize(wave, Vec::new());
        }
        waves[wave - 1].push(i);
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn working_example() -> Vec<KeySet> {
        vec![
            KeySet::from_iter([1u64, 2, 3, 5]),
            KeySet::from_iter([1u64, 2, 3, 4]),
            KeySet::from_iter([3u64, 4, 5]),
            KeySet::from_iter([6u64, 7, 8]),
            KeySet::from_iter([7u64, 8, 9]),
        ]
    }

    #[test]
    fn validation_rejects_malformed_schedules() {
        assert!(matches!(
            MergeSchedule::new(0, 2, vec![]),
            Err(Error::EmptyInput)
        ));
        assert!(matches!(
            MergeSchedule::new(2, 1, vec![]),
            Err(Error::InvalidFanIn { requested: 1 })
        ));
        // Not reducing to one set.
        assert!(matches!(
            MergeSchedule::new(3, 2, vec![MergeOp::new(vec![0, 1])]),
            Err(Error::IncompleteSchedule { remaining: 2 })
        ));
        // Arity violations.
        assert!(matches!(
            MergeSchedule::new(3, 2, vec![MergeOp::new(vec![0, 1, 2])]),
            Err(Error::InvalidOpArity { .. })
        ));
        assert!(matches!(
            MergeSchedule::new(2, 2, vec![MergeOp::new(vec![0])]),
            Err(Error::InvalidOpArity { .. })
        ));
        // Reusing a consumed slot.
        assert!(matches!(
            MergeSchedule::new(
                3,
                2,
                vec![MergeOp::new(vec![0, 1]), MergeOp::new(vec![0, 2])]
            ),
            Err(Error::InvalidSlot {
                op_index: 1,
                slot: 0
            })
        ));
        // Referencing its own output or a future slot.
        assert!(matches!(
            MergeSchedule::new(2, 2, vec![MergeOp::new(vec![0, 2])]),
            Err(Error::InvalidSlot { .. })
        ));
        // Duplicate input in one op.
        assert!(matches!(
            MergeSchedule::new(2, 3, vec![MergeOp::new(vec![0, 0])]),
            Err(Error::InvalidSlot { .. })
        ));
    }

    #[test]
    fn single_set_empty_schedule_is_valid() {
        let schedule = MergeSchedule::new(1, 2, vec![]).unwrap();
        assert!(schedule.is_empty());
        let sets = vec![KeySet::from_iter([1u64, 2])];
        assert_eq!(schedule.cost(&sets), 2, "only the lone leaf is counted");
        assert_eq!(schedule.cost_actual(&sets), 0, "nothing is read or written");
        assert_eq!(schedule.final_set(&sets).len(), 2);
    }

    #[test]
    fn balanced_schedule_on_working_example_costs_45() {
        // Figure 4: merge (A1,A2) and (A3,A4) at level 1, then their
        // outputs, then the result with A5.
        let sets = working_example();
        let schedule = MergeSchedule::new(
            5,
            2,
            vec![
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![2, 3]),
                MergeOp::new(vec![5, 6]),
                MergeOp::new(vec![7, 4]),
            ],
        )
        .unwrap();
        assert_eq!(schedule.cost(&sets), 45);
        assert_eq!(schedule.final_set(&sets), KeySet::from_range(1..10));
        assert_eq!(schedule.cost_reformulated(&sets), 45);
    }

    #[test]
    fn smallest_output_schedule_on_working_example_costs_40() {
        // Figure 6: (A4,A5) → {6..9}; (A1,A2) → {1..5}; that with A3; then
        // the two outputs.
        let sets = working_example();
        let schedule = MergeSchedule::new(
            5,
            2,
            vec![
                MergeOp::new(vec![3, 4]),
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![6, 2]),
                MergeOp::new(vec![7, 5]),
            ],
        )
        .unwrap();
        assert_eq!(schedule.cost(&sets), 40);
    }

    #[test]
    fn cost_actual_relationship() {
        // cost_actual = cost − Σ|A_i| − |root| + Σ_internal |ν|
        //             = 2·cost − 2·Σ|A_i| − ... easier: verify on the
        // working example's balanced schedule directly.
        let sets = working_example();
        let schedule = MergeSchedule::new(
            5,
            2,
            vec![
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![2, 3]),
                MergeOp::new(vec![5, 6]),
                MergeOp::new(vec![7, 4]),
            ],
        )
        .unwrap();
        // Inputs read: 4+4, 3+3, 5+6, 8+3 = 36; outputs written: 5+6+8+9 = 28.
        assert_eq!(schedule.cost_actual(&sets), 36 + 28);
        // General identity: cost_actual = cost + Σ internal (non-root)
        // output sizes − Σ leaf sizes... checked numerically elsewhere via
        // property tests; here the exact value suffices.
    }

    #[test]
    fn kway_schedule_costs() {
        let sets = vec![
            KeySet::from_iter([1u64]),
            KeySet::from_iter([2u64]),
            KeySet::from_iter([3u64]),
            KeySet::from_iter([4u64]),
        ];
        let schedule = MergeSchedule::new(4, 4, vec![MergeOp::new(vec![0, 1, 2, 3])]).unwrap();
        assert_eq!(schedule.cost(&sets), 4 + 4);
        assert_eq!(schedule.cost_actual(&sets), 4 + 4);
        assert_eq!(schedule.fanin(), 4);
    }

    #[test]
    fn to_tree_mirrors_schedule_shape() {
        let schedule = MergeSchedule::new(
            4,
            2,
            vec![
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![2, 3]),
                MergeOp::new(vec![4, 5]),
            ],
        )
        .unwrap();
        let tree = schedule.to_tree();
        assert_eq!(tree.leaf_count(), 4);
        assert_eq!(tree.node_count(), 7);
        assert_eq!(tree.height(), 2);

        let single = MergeSchedule::new(1, 2, vec![]).unwrap().to_tree();
        assert_eq!(single.leaf_count(), 1);
    }

    #[test]
    fn uniform_disjoint_cost_closed_form() {
        // Section 5.2 footnote: with n equal-size disjoint sstables of
        // size s and k = 2, every merge schedule has
        // cost_actual = 3·(n−1)·s, because each iteration reads 2s keys
        // and writes s·(something)… more precisely the footnote's model
        // has constant-size merges (high-overlap regime); for *disjoint*
        // runs the identity holds for the caterpillar schedule where the
        // accumulated run is re-read every iteration only in the
        // high-overlap case. The disjoint closed form verified here is
        // the balanced/caterpillar-independent identity
        // cost_actual = Σ inputs + Σ outputs computed explicitly.
        let n = 8usize;
        let s = 5u64;
        let sets: Vec<KeySet> = (0..n as u64)
            .map(|i| KeySet::from_range(i * 100..i * 100 + s))
            .collect();

        // High-overlap analogue (identical sets): cost_actual = 3·(n−1)·s
        // exactly, for any schedule, as the footnote states.
        let identical: Vec<KeySet> = vec![KeySet::from_range(0..s); n];
        {
            let ops = (1..n)
                .scan(0usize, |acc, next| {
                    let op = MergeOp::new(vec![*acc, next]);
                    *acc = n + next - 1;
                    Some(op)
                })
                .collect::<Vec<_>>();
            let schedule = MergeSchedule::new(n, 2, ops).unwrap();
            assert_eq!(
                schedule.cost_actual(&identical),
                3 * (n as u64 - 1) * s,
                "footnote closed form for identical sstables"
            );
        }

        // Disjoint runs under the caterpillar: inputs grow, so the cost is
        // strictly larger than the footnote's constant-merge value.
        let caterpillar: Vec<MergeOp> = (1..n)
            .scan(0usize, |acc, next| {
                let op = MergeOp::new(vec![*acc, next]);
                *acc = n + next - 1;
                Some(op)
            })
            .collect();
        let schedule = MergeSchedule::new(n, 2, caterpillar).unwrap();
        assert!(schedule.cost_actual(&sets) > 3 * (n as u64 - 1) * s);
    }

    #[test]
    fn slot_steps_mirror_ops() {
        let schedule = MergeSchedule::new(
            3,
            2,
            vec![MergeOp::new(vec![0, 1]), MergeOp::new(vec![3, 2])],
        )
        .unwrap();
        assert_eq!(schedule.slot_steps(), vec![vec![0, 1], vec![3, 2]]);
    }

    #[test]
    fn dependency_waves_expose_parallelism() {
        // Balanced: ops 0 and 1 are independent (wave 1), op 2 joins them.
        let balanced = MergeSchedule::new(
            4,
            2,
            vec![
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![2, 3]),
                MergeOp::new(vec![4, 5]),
            ],
        )
        .unwrap();
        assert_eq!(balanced.dependency_waves(), vec![vec![0, 1], vec![2]]);

        // Caterpillar: fully sequential, one op per wave.
        let caterpillar = MergeSchedule::new(
            4,
            2,
            vec![
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![4, 2]),
                MergeOp::new(vec![5, 3]),
            ],
        )
        .unwrap();
        assert_eq!(
            caterpillar.dependency_waves(),
            vec![vec![0], vec![1], vec![2]]
        );

        // Empty schedule: no waves.
        assert!(MergeSchedule::new(1, 2, vec![])
            .unwrap()
            .dependency_waves()
            .is_empty());
    }

    #[test]
    fn outputs_are_cumulative_unions() {
        let sets = working_example();
        let schedule = MergeSchedule::new(
            5,
            2,
            vec![
                MergeOp::new(vec![0, 1]),
                MergeOp::new(vec![5, 2]),
                MergeOp::new(vec![3, 4]),
                MergeOp::new(vec![6, 7]),
            ],
        )
        .unwrap();
        let outputs = schedule.outputs(&sets);
        assert_eq!(outputs.len(), 4);
        assert_eq!(
            outputs[0],
            KeySet::from_range(1..6).union(&KeySet::new()).clone()
        );
        assert_eq!(outputs[3], KeySet::from_range(1..10));
    }
}
