//! Output checker that shares no code with the compilers: it replays a
//! compiled program against the source circuit and the device topology.

use ssync_arch::{Placement, QccdTopology, TrapId};
use ssync_circuit::Circuit;
use ssync_sim::{CompiledProgram, ExecutionReport, ScheduledOp};

/// Checks one compiled program. `Err` names the first violated rule.
///
/// * every qubit's two-qubit gates appear in circuit order;
/// * both operands of every gate and SWAP sit in the gate's trap, by a
///   backward shuttle replay from `final_placement`;
/// * no trap ever holds more ions than its capacity;
/// * one- and two-qubit gate counts are conserved, and the report's counts
///   match the program;
/// * the success rate lies in (0, 1].
pub fn check(
    circuit: &Circuit,
    topology: &QccdTopology,
    program: &CompiledProgram,
    final_placement: &Placement,
    report: &ExecutionReport,
) -> Result<(), String> {
    let n = circuit.num_qubits();
    if program.num_qubits() != n || program.num_traps() != topology.num_traps() {
        return Err(format!(
            "program shape {}q/{}t, expected {n}q/{}t",
            program.num_qubits(),
            program.num_traps(),
            topology.num_traps()
        ));
    }

    // Per-qubit partner sequence of the circuit's two-qubit gates.
    let mut expected: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut single_expected = 0usize;
    for gate in circuit.gates() {
        match gate.two_qubit_pair() {
            Some((a, b)) => {
                expected[a.index()].push(b.0);
                expected[b.index()].push(a.0);
            }
            None => single_expected += 1,
        }
    }
    let two_expected = circuit.gates().len() - single_expected;

    let qubit_ok = |q: u32| (q as usize) < n;
    let trap_ok = |t: TrapId| t.index() < topology.num_traps();
    let mut cursor = vec![0usize; n];
    let (mut single, mut two, mut swaps, mut shuttles, mut reorders) = (0, 0, 0, 0, 0);
    for op in program.ops() {
        match *op {
            ScheduledOp::SingleQubitGate { qubit } => {
                if !qubit_ok(qubit.0) {
                    return Err(format!("1q gate on unknown {qubit}"));
                }
                single += 1;
            }
            ScheduledOp::TwoQubitGate { a, b, trap, .. } => {
                if !qubit_ok(a.0) || !qubit_ok(b.0) || a == b || !trap_ok(trap) {
                    return Err(format!("malformed gate {op}"));
                }
                for (q, partner) in [(a, b), (b, a)] {
                    let i = q.index();
                    if expected[i].get(cursor[i]) != Some(&partner.0) {
                        return Err(format!("gate {op} out of circuit order on {q}"));
                    }
                    cursor[i] += 1;
                }
                two += 1;
            }
            ScheduledOp::SwapGate { a, b, trap, .. } => {
                if !qubit_ok(a.0) || !qubit_ok(b.0) || a == b || !trap_ok(trap) {
                    return Err(format!("malformed swap {op}"));
                }
                swaps += 1;
            }
            ScheduledOp::IonReorder { trap, .. } => {
                if !trap_ok(trap) {
                    return Err(format!("malformed reorder {op}"));
                }
                reorders += 1;
            }
            ScheduledOp::Shuttle { qubit, from_trap, to_trap, .. } => {
                if !qubit_ok(qubit.0) || !trap_ok(from_trap) || !trap_ok(to_trap) {
                    return Err(format!("malformed shuttle {op}"));
                }
                if from_trap == to_trap {
                    return Err(format!("shuttle {op} does not move"));
                }
                shuttles += 1;
            }
        }
    }
    if let Some(q) = (0..n).find(|&q| cursor[q] != expected[q].len()) {
        return Err(format!("q{q} ran {} of {} two-qubit gates", cursor[q], expected[q].len()));
    }
    if single != single_expected || two != two_expected {
        return Err(format!(
            "gate counts {single}/{two}, circuit has {single_expected}/{two_expected}"
        ));
    }
    let c = report.counts;
    if (c.single_qubit_gates, c.two_qubit_gates, c.swap_gates, c.shuttles, c.reorders)
        != (single, two, swaps, shuttles, reorders)
    {
        return Err(format!("report counts {c:?} disagree with the program"));
    }

    // Backward replay of trap membership from the final placement.
    let capacity: Vec<usize> = topology.traps().iter().map(|t| t.capacity()).collect();
    let mut trap_of = Vec::with_capacity(n);
    let mut occupancy = vec![0usize; capacity.len()];
    for q in 0..n {
        let trap = final_placement
            .trap_of(ssync_circuit::Qubit(q as u32))
            .filter(|&t| trap_ok(t))
            .ok_or_else(|| format!("q{q} missing from the final placement"))?;
        occupancy[trap.index()] += 1;
        trap_of.push(trap);
    }
    let over = |occupancy: &[usize]| (0..capacity.len()).find(|&t| occupancy[t] > capacity[t]);
    if let Some(t) = over(&occupancy) {
        return Err(format!("trap {t} over capacity at the end"));
    }
    for op in program.ops().iter().rev() {
        match *op {
            ScheduledOp::TwoQubitGate { a, b, trap, .. }
            | ScheduledOp::SwapGate { a, b, trap, .. } => {
                if trap_of[a.index()] != trap || trap_of[b.index()] != trap {
                    return Err(format!("{op}: operands not in the gate's trap"));
                }
            }
            ScheduledOp::Shuttle { qubit, from_trap, to_trap, .. } => {
                if trap_of[qubit.index()] != to_trap {
                    return Err(format!("{op}: qubit is not in the destination trap"));
                }
                trap_of[qubit.index()] = from_trap;
                occupancy[to_trap.index()] -= 1;
                occupancy[from_trap.index()] += 1;
                if occupancy[from_trap.index()] > capacity[from_trap.index()] {
                    return Err(format!("{op}: source trap over capacity before the shuttle"));
                }
            }
            ScheduledOp::SingleQubitGate { .. } | ScheduledOp::IonReorder { .. } => {}
        }
    }

    let p = report.success_rate;
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!("success rate {p} outside (0, 1]"));
    }
    Ok(())
}
