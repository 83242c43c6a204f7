//! Property tests: the default event-driven cone simulation (frontier
//! with dense adoption) classifies every injection exactly like the
//! full-circuit reference oracle.
//!
//! The cone path must be an *optimisation*, not an approximation — for
//! both fault models, any injection target and any batch of injection
//! times, the per-class tallies (and therefore every FDR and SET
//! derating table built from them) must match the full evaluation bit
//! for bit.

use ffr_circuits::corpus::CorpusSpec;
use ffr_fault::{Campaign, CampaignConfig, FailureClass, InjectionPoint, OutputMismatchJudge};
use ffr_netlist::{Bus, FfId, NetId, NetlistBuilder};
use ffr_sim::{CompiledCircuit, InputFrame, Stimulus, WatchList};
use proptest::prelude::*;

/// A small sequential design with feedback, cross-register logic and
/// several observable outputs (same shape as the sim crate's
/// `cone_equivalence.rs`).
fn circuit(width: usize) -> CompiledCircuit {
    let mut b = NetlistBuilder::new("cone_cls");
    let a = b.input("a", width);
    let en = b.input("en", 1);
    let r1 = b.reg("r1", width);
    let (sum, carry) = b.add(&r1.q(), &a);
    b.connect_en(&r1, &en, &sum).unwrap();
    let r2 = b.reg("r2", width);
    let x = b.xor(&r1.q(), &a);
    b.connect(&r2, &x).unwrap();
    let red = b.reduce_xor(&r2.q());
    b.output("sum", &r1.q());
    b.output("parity", &red);
    b.output("carry", &Bus::single(carry.net(0)));
    CompiledCircuit::compile(b.finish().unwrap()).unwrap()
}

/// Deterministic broadcast stimulus: a pure function of the cycle.
struct MixStimulus {
    width: usize,
    cycles: u64,
}

impl Stimulus for MixStimulus {
    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        let mut x = cycle
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x ^= x >> 29;
        for bit in 0..self.width {
            frame.set(bit, (x >> bit) & 1 == 1);
        }
        frame.set(self.width, (x >> 21) & 1 == 1);
    }
}

/// Input-count-generic deterministic stimulus for arbitrary (corpus)
/// circuits: every input bit is a hash of `(cycle, bit)`.
struct HashStimulus {
    inputs: usize,
    cycles: u64,
}

impl Stimulus for HashStimulus {
    fn num_cycles(&self) -> u64 {
        self.cycles
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        for bit in 0..self.inputs {
            let mut x = cycle
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((bit as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            x ^= x >> 31;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 29;
            frame.set(bit, x & 1 == 1);
        }
    }
}

/// Every interesting SET target: gate outputs, flip-flop Q nets and
/// primary inputs (driverless source sites).
fn set_targets(cc: &CompiledCircuit) -> Vec<NetId> {
    let mut targets = cc.comb_output_nets();
    targets.extend((0..cc.num_ffs()).map(|i| cc.netlist().ff_q_net(FfId::from_index(i))));
    targets.extend(cc.netlist().primary_inputs().iter().copied());
    targets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `run_point_times` with the default frontier path tallies every
    /// failure class identically to the full-circuit oracle, for both
    /// fault models and arbitrary batches of injection times.
    #[test]
    fn cone_tallies_equal_full_tallies(
        width in 2usize..6,
        seu in any::<bool>(),
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..80),
        cycles in 24u64..48,
    ) {
        let cc = circuit(width);
        let stim = MixStimulus { width, cycles };
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);

        let point = if seu {
            InjectionPoint::Seu(FfId::from_index(pick % cc.num_ffs()))
        } else {
            let nets = set_targets(&cc);
            InjectionPoint::Set(nets[pick % nets.len()])
        };
        let times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();

        let base = CampaignConfig::new(0..cycles);
        let frontier = campaign.run_point_times(point, &times, &base.clone());
        let full = campaign.run_point_times(point, &times, &base.with_cone(false));
        prop_assert_eq!(frontier, full);
        prop_assert_eq!(
            full.iter().sum::<usize>(),
            times.len(),
            "every injection classified exactly once"
        );
    }

    /// Corpus-wide conformance: the same tally identity holds
    /// over *arbitrary generated corpus circuits* — `CorpusSpec::sampled`
    /// maps free integers onto every generator family (counters, LFSR
    /// pipelines, ALUs, FIFOs, CRCs, register files, seeded mixes), so
    /// the frontier path is proven against structures no
    /// hand-written testbench enumerates.
    #[test]
    fn corpus_tallies_equal_full_tallies(
        kind in 0usize..7,
        size_a in any::<usize>(),
        size_b in any::<usize>(),
        structure_seed in any::<u64>(),
        seu in any::<bool>(),
        pick in 0usize..64,
        raw_times in proptest::collection::vec(0u64..1000, 1..64),
        cycles in 24u64..40,
    ) {
        let spec = CorpusSpec::sampled(kind, size_a, size_b, structure_seed);
        let cc = CompiledCircuit::compile(spec.build()).unwrap();
        let stim = HashStimulus { inputs: cc.num_inputs(), cycles };
        let watch = WatchList::all(&cc);
        let judge = OutputMismatchJudge::new();
        let campaign = Campaign::new(&cc, &stim, &watch, &judge);

        let point = if seu {
            InjectionPoint::Seu(FfId::from_index(pick % cc.num_ffs()))
        } else {
            let nets = set_targets(&cc);
            InjectionPoint::Set(nets[pick % nets.len()])
        };
        let times: Vec<u64> = raw_times.iter().map(|t| t % cycles).collect();

        let base = CampaignConfig::new(0..cycles);
        let frontier = campaign.run_point_times(point, &times, &base.clone());
        let full = campaign.run_point_times(point, &times, &base.with_cone(false));
        prop_assert_eq!(frontier, full, "frontier/full tallies for {}", spec.id());
    }
}

/// Whole-table equivalence: an SEU campaign over every flip-flop produces
/// the same FDR table on the frontier and full-circuit paths — including
/// with early exit disabled, which forces full-window simulation
/// everywhere.
#[test]
fn fdr_tables_identical_across_eval_paths() {
    let cc = circuit(4);
    let stim = MixStimulus {
        width: 4,
        cycles: 96,
    };
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);

    for early_exit in [true, false] {
        let mut base = CampaignConfig::new(8..88).with_injections(48).with_seed(19);
        base.early_exit = early_exit;
        let frontier = campaign.run(&base.clone());
        let full = campaign.run(&base.clone().with_cone(false));
        for (ff, _) in cc.netlist().ffs() {
            assert_eq!(
                frontier.fdr(ff),
                full.fdr(ff),
                "frontier/full FDR mismatch for {} (early_exit={early_exit})",
                cc.netlist().ff_name(ff)
            );
        }
    }
}

/// Whole-table equivalence for the SET fault model: a derating campaign
/// over every interesting net (gate outputs, Q nets, source inputs)
/// produces the same table on the frontier and full-circuit paths.
#[test]
fn set_tables_identical_across_eval_paths() {
    let cc = circuit(3);
    let stim = MixStimulus {
        width: 3,
        cycles: 72,
    };
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let nets = set_targets(&cc);

    let base = CampaignConfig::new(4..68).with_injections(32).with_seed(23);
    let frontier = campaign.run_set_parallel(&nets, &base.clone(), |_, _| {});
    let full = campaign.run_set_parallel(&nets, &base.with_cone(false), |_, _| {});
    for &net in &nets {
        assert_eq!(
            frontier.derating(net),
            full.derating(net),
            "frontier/full SET derating mismatch for net {net}"
        );
    }
}

/// Scratch reuse across points and batches leaves no residue: running a
/// SET campaign twice through the same `PointRunner`/`PointScratch` pair
/// (and interleaving other points in between) reproduces the first
/// tallies exactly.
#[test]
fn scratch_reuse_leaves_no_residue() {
    let cc = circuit(3);
    let stim = MixStimulus {
        width: 3,
        cycles: 64,
    };
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &stim, &watch, &judge);
    let config = CampaignConfig::new(0..64);

    let times: Vec<u64> = (0..64).map(|i| (i * 7) % 64).collect();
    let mut scratch = campaign.point_scratch();
    // Interleaving the frontier path and the full-circuit oracle through
    // the same scratch also proves the frontier worklist is fully
    // drained/re-attached between batches of different paths.
    for cone in [true, false] {
        let config = config.clone().with_cone(cone);
        for point in set_targets(&cc)
            .into_iter()
            .map(InjectionPoint::Set)
            .chain((0..cc.num_ffs()).map(|i| InjectionPoint::Seu(FfId::from_index(i))))
        {
            let mut runner = campaign.point_runner(point);
            let first = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
            let fresh = campaign.run_point_times(point, &times, &config);
            assert_eq!(first, fresh, "reused scratch diverged for {point:?}");
            let again = campaign.run_point_times_with(&mut runner, &mut scratch, &times, &config);
            assert_eq!(first, again, "second pass diverged for {point:?}");
        }
    }
    let _ = FailureClass::ALL; // tallies cover all classes by construction
}
