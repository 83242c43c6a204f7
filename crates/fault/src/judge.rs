//! Failure classification interfaces.

use crate::model::FailureClass;
use ffr_sim::LaneView;

/// Classifies the outcome of one fault scenario by inspecting the
/// watched-output traces.
///
/// Implementations receive a [`LaneView`] of the golden run and one of the
/// faulty scenario (which transparently serves golden data outside the
/// simulated window), plus the injection cycle. They must be `Sync`: the
/// campaign classifies scenarios from multiple worker threads.
///
/// Contract: a lane whose watched outputs equal golden on every cycle is
/// [`FailureClass::Benign`]. The campaign relies on it — one bit-parallel
/// pass per 64-lane batch tallies such lanes `Benign` without calling
/// [`FailureJudge::classify`], so a judge only ever sees lanes that
/// deviate somewhere.
pub trait FailureJudge: Sync {
    /// Classify one fault scenario.
    fn classify(
        &self,
        golden: &LaneView<'_>,
        faulty: &LaneView<'_>,
        inject_cycle: u64,
    ) -> FailureClass;
}

/// Circuit-agnostic judge: any deviation of any watched output from the
/// golden trace, at or after the injection cycle, is a failure.
///
/// This implements the strictest failure criterion (pure output de-rating,
/// no application-level masking) and is the right default for circuits
/// without a packet-level notion of "function". An optional settling
/// allowance ignores deviations in the first `grace_cycles` after injection.
#[derive(Debug, Clone, Default)]
pub struct OutputMismatchJudge {
    /// Deviations within `inject_cycle + grace_cycles` are ignored.
    pub grace_cycles: u64,
}

impl OutputMismatchJudge {
    /// Judge with zero grace cycles.
    pub fn new() -> OutputMismatchJudge {
        OutputMismatchJudge { grace_cycles: 0 }
    }
}

impl FailureJudge for OutputMismatchJudge {
    fn classify(
        &self,
        golden: &LaneView<'_>,
        faulty: &LaneView<'_>,
        inject_cycle: u64,
    ) -> FailureClass {
        let from = inject_cycle.saturating_add(self.grace_cycles);
        for cycle in from..golden.num_cycles() {
            for w in 0..golden.width() {
                if golden.bit(w, cycle) != faulty.bit(w, cycle) {
                    return FailureClass::OutputMismatch;
                }
            }
        }
        FailureClass::Benign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_sim::OutputTrace;

    #[test]
    fn mismatch_judge_detects_and_ignores() {
        // Golden: output 0 low forever, 8 cycles.
        let golden_trace = OutputTrace::new(0, 8, 1);
        // Faulty trace identical (all zero) over 2..8.
        let faulty_same = OutputTrace::new(2, 8, 1);
        let g = LaneView::golden(&golden_trace);
        let f = LaneView::faulty(&golden_trace, &faulty_same, 0, None);
        let judge = OutputMismatchJudge::new();
        assert_eq!(judge.classify(&g, &f, 2), FailureClass::Benign);

        // A faulty trace with lane 5 high at cycle 4.
        let mut faulty_diff = OutputTrace::new(2, 8, 1);
        faulty_diff.set_word(0, 4, 1u64 << 5);
        let f2 = LaneView::faulty(&golden_trace, &faulty_diff, 5, None);
        assert_eq!(judge.classify(&g, &f2, 2), FailureClass::OutputMismatch);
        // The same scenario seen from lane 6 is benign.
        let f3 = LaneView::faulty(&golden_trace, &faulty_diff, 6, None);
        assert_eq!(judge.classify(&g, &f3, 2), FailureClass::Benign);
        // Grace period swallows the deviation.
        let lenient = OutputMismatchJudge { grace_cycles: 4 };
        assert_eq!(lenient.classify(&g, &f2, 2), FailureClass::Benign);
    }
}
