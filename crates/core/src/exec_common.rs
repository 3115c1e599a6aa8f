//! Helpers shared by the pipeline engines.

use crate::config::FuSlots;
use ff_isa::FuClass;

/// Length of the longest prefix of the FU `classes` that fits one
/// cycle's slots and `issue_width`. Always at least 1 when `classes` is
/// non-empty (an oversized single instruction still issues alone).
#[must_use]
pub fn fitting_prefix_classes<I>(classes: I, slots: &FuSlots, issue_width: usize) -> usize
where
    I: IntoIterator<Item = FuClass>,
{
    // Slots taken so far per class, by `FuClass::index`.
    let mut used = [0usize; 4];
    let mut n = 0;
    for fu in classes {
        if n >= issue_width || used[fu.index()] >= slots[fu] {
            break;
        }
        used[fu.index()] += 1;
        n += 1;
    }
    n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use FuClass::{Alu, Branch, Mem};

    #[test]
    fn slot_limits_respected() {
        let slots = FuSlots::paper_table1();
        // Only 3 memory slots per cycle.
        assert_eq!(fitting_prefix_classes([Mem; 4], &slots, 8), 3);
    }

    #[test]
    fn issue_width_caps_group() {
        let slots = FuSlots { alu: 16, mem: 16, fp: 16, branch: 16 };
        assert_eq!(fitting_prefix_classes([Alu; 12], &slots, 8), 8);
    }

    #[test]
    fn single_instruction_always_issues() {
        let slots = FuSlots { alu: 0, mem: 0, fp: 0, branch: 0 };
        assert_eq!(fitting_prefix_classes([Alu], &slots, 8), 1);
    }

    #[test]
    fn mixed_group_fits_paper_slots() {
        let slots = FuSlots::paper_table1();
        let group = [Alu, Alu, Alu, Alu, Alu, Mem, Mem, Branch];
        assert_eq!(fitting_prefix_classes(group, &slots, 8), 8);
    }
}
