#!/usr/bin/env python3
"""The adoption workflow: find, convert, prove, and measure a DTT.

This walkthrough does to a fresh kernel what the paper's authors did to
SPEC: profile it, rank silent stores against the redundant loads
downstream of them, move the recompute into a data-triggered thread,
prove the result output-identical, and measure the win.
:func:`repro.autoconvert.convert_program` runs all of that; this script
prints what it found and replays its proof in the open.

The kernel is a small inventory system: orders mutate stock levels
(mostly no-op restocks), and a reorder report is derived from the stock
table after every order.

Run:  python examples/autoconvert_inventory.py
"""

from repro import Machine, ProgramBuilder, run_to_completion
from repro.analysis import analyze_program
from repro.autoconvert import convert_program
from repro.workloads.data import int_array, update_schedule

ITEMS = 48
STEPS = 120
THRESHOLD = 20


def make_inputs(seed=7):
    stock = int_array(seed, ITEMS, (0, 60), stream="inv-stock")
    upd_idx, upd_val = update_schedule(
        seed, STEPS, stock, change_rate=0.12, value_range=(0, 60),
        stream="inv-orders",
    )
    return stock, upd_idx, upd_val


def emit_report(b):
    """reorder[i] = 1 if stock[i] < THRESHOLD; count them into total."""
    with b.scratch(5, "rp") as (sb, rb, i, v, total):
        b.la(sb, "stock")
        b.la(rb, "reorder")
        b.li(total, 0)
        with b.for_range(i, 0, ITEMS):
            b.ldx(v, sb, i)
            with b.scratch(1, "lo") as (low,):
                b.slti(low, v, THRESHOLD)
                b.stx(low, rb, i)
                b.add(total, total, low)
        with b.scratch(1, "tb") as (tb,):
            b.la(tb, "total")
            b.st(total, tb, 0)


def emit_step(b, t):
    """One order: stock[upd_idx[t]] = upd_val[t]."""
    with b.scratch(4, "up") as (ui, uv, idx, val):
        b.la(ui, "upd_idx")
        b.la(uv, "upd_val")
        b.ldx(idx, ui, t)
        b.ldx(val, uv, t)
        with b.scratch(1, "sb") as (sb,):
            b.la(sb, "stock")
            b.stx(val, sb, idx)


def emit_consume(b, checksum):
    with b.scratch(2, "co") as (tb, v):
        b.la(tb, "total")
        b.ld(v, tb, 0)
        b.add(checksum, checksum, v)
    b.out(checksum)


def build_baseline(stock, upd_idx, upd_val):
    b = ProgramBuilder()
    b.data("stock", stock)
    b.zeros("reorder", ITEMS)
    b.zeros("total", 1)
    b.data("upd_idx", upd_idx)
    b.data("upd_val", upd_val)
    with b.function("main"):
        t = b.global_reg("t")
        checksum = b.global_reg("checksum")
        b.li(checksum, 0)
        with b.for_range(t, 0, STEPS):
            emit_step(b, t)
            emit_report(b)  # recomputed every order, changed or not
            emit_consume(b, checksum)
        b.halt()
    return b.build()


def main():
    baseline = build_baseline(*make_inputs())

    print("step 1 — profile, rank, and convert")
    print("=" * 55)
    result = convert_program(baseline)
    print(f"{result.considered} candidate(s) considered, "
          f"{len(result.accepted)} accepted")
    (candidate,) = result.accepted
    feeders = ", ".join(f"{baseline.instructions[pc].op} at pc {pc}"
                        for pc in candidate.store_pcs)
    print(f"region pc {candidate.region_start}..{candidate.region_end - 1} "
          f"fed by {feeders}")
    print(f"  feeder stores silent: {candidate.silent_stores}/"
          f"{candidate.dynamic_stores} ({candidate.silent_fraction:.0%})")
    print(f"  region loads redundant: {candidate.redundant_loads:,}/"
          f"{candidate.region_loads:,}")
    print(f"  score: {candidate.score:.4f}\n")

    build = result.build
    print("step 2 — static proof")
    print("=" * 55)
    findings = analyze_program(build.program, build.specs)
    print(f"safety findings: {findings or 'none'}\n")

    print("step 3 — prove it output-identical")
    print("=" * 55)
    baseline_out = run_to_completion(Machine(baseline))
    dtt_machine = Machine(build.program, num_contexts=2)
    dtt_machine.attach_engine(build.engine())
    dtt_out = run_to_completion(dtt_machine)
    assert dtt_out == baseline_out
    print(f"outputs identical over {len(dtt_out)} steps: yes\n")

    print("step 4 — measure (smt2)")
    print("=" * 55)
    print(f"baseline: {result.baseline_cycles:>7,} cycles")
    print(f"DTT:      {result.cycles:>7,} cycles")
    print(f"speedup:  {result.speedup:.2f}x")
    print(f"redundant loads eliminated: {result.elimination:.1%}")


if __name__ == "__main__":
    main()
