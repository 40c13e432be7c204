//! The unit-test layers measured on their own: witness synthesis
//! (atlas-synth), witness lowering and the bytecode VM (atlas-interp),
//! over the oracle leg's enumerated two-step witness set.  These layers
//! run inside oracle queries, whose share of the product path is already
//! charged to `learn.oracle`; the numbers here break that share down per
//! witness.

use atlas_interp::{BuiltinRegistry, CompiledProgram, CompiledWitness, ExecLimits, Vm, VmScratch};
use atlas_ir::{LibraryInterface, ParamSlot, Program};
use atlas_spec::PathSpec;
use atlas_synth::{synthesize_witness, InitStrategy, InstantiationPlanner, WitnessTest};

use crate::layers::Layers;
use crate::util::timed;

/// Witnesses enumerated at most.
const MAX_WITNESSES: usize = 256;
/// VM executions per witness.
const VM_ROUNDS: usize = 40;

/// Measures synthesis, lowering and VM execution per witness of
/// `program`'s two-step candidates (`in → receiver, receiver → out`, the
/// shape that dominates phase 1).
pub fn measure(program: &Program, lt: &mut Layers) {
    let interface = LibraryInterface::from_program(program);
    let planner = InstantiationPlanner::new(program, &interface);
    let sources: Vec<(ParamSlot, ParamSlot)> = interface
        .methods()
        .iter()
        .filter(|sig| !sig.is_constructor && sig.has_this)
        .flat_map(|sig| {
            let recv = ParamSlot::receiver(sig.method);
            sig.reference_slots()
                .into_iter()
                .filter(move |s| s.is_input() && *s != recv)
                .map(move |s| (s, recv))
        })
        .collect();
    let sinks: Vec<(ParamSlot, ParamSlot)> = interface
        .methods()
        .iter()
        .filter(|sig| !sig.is_constructor && sig.has_this && sig.returns_reference())
        .map(|sig| (ParamSlot::receiver(sig.method), ParamSlot::ret(sig.method)))
        .collect();
    let specs: Vec<PathSpec> = sources
        .iter()
        .flat_map(|&(entry, mid)| {
            sinks
                .iter()
                .filter_map(move |&(recv, exit)| PathSpec::new(vec![entry, mid, recv, exit]).ok())
        })
        .collect();

    let mut witnesses: Vec<WitnessTest> = Vec::new();
    let (_, synth_ms) = timed(|| {
        for spec in &specs {
            if witnesses.len() >= MAX_WITNESSES {
                break;
            }
            if let Ok(w) = synthesize_witness(
                program,
                &interface,
                &planner,
                spec,
                InitStrategy::Instantiate,
            ) {
                witnesses.push(w);
            }
        }
    });
    let n = witnesses.len().max(1) as f64;
    lt.add("synth.witness_us", synth_ms * 1e3 / n);

    let compiled = CompiledProgram::compile(program);
    let (lowered, lower_ms): (Vec<CompiledWitness>, f64) =
        timed(|| witnesses.iter().map(WitnessTest::compile).collect());
    lt.add("interp.lower_us", lower_ms * 1e3 / n);

    let builtins = BuiltinRegistry::with_defaults();
    let limits = ExecLimits::for_unit_tests();
    let mut vm = Vm::with_scratch(&compiled, &builtins, limits, VmScratch::default());
    // One untimed pass pays first-run effects (allocator, caches).
    for cw in &lowered {
        vm.reset(limits);
        let _ = vm.run_witness(cw);
    }
    let (execs, vm_ms) = timed(|| {
        let mut execs = 0usize;
        for _ in 0..VM_ROUNDS {
            for cw in &lowered {
                vm.reset(limits);
                let _ = std::hint::black_box(vm.run_witness(std::hint::black_box(cw)));
                execs += 1;
            }
        }
        execs
    });
    lt.add("interp.vm_us", vm_ms * 1e3 / execs.max(1) as f64);
    lt.add("interp.vm.execs_per_s", execs as f64 / (vm_ms / 1e3));
}
