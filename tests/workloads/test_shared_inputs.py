"""Nothing that reads an input or a build may change it.

A :class:`~repro.harness.runner.SuiteRunner` makes each workload input and
each build once and hands the same objects to every run, profile and
analysis that needs them.  That is only sound while none of those writes
to what it was given, so every consumer is run here on one input and its
builds, and everything is compared against a deep snapshot taken first.
"""

import copy

import pytest

from repro.analysis.checks import analyze_build
from repro.exec.plan import resolve_workload
from repro.machine.machine import Machine, run_to_completion
from repro.profiling.report import profile_program
from repro.timing.params import named_config
from repro.timing.system import TimingSimulator
from repro.workloads.suite import SUITE

WORKLOADS = list(SUITE) + ["bursty-equake", "linefalse", "overlap"]
KINDS = ("baseline", "dtt", "dtt-watch")


def program_snapshot(program):
    return {
        "instructions": [(i.op, i.a, i.b, i.c, i.label, i.target)
                         for i in program.instructions],
        "data": [(item.name, list(item.values))
                 for item in program.data_items],
        "layout": dict(program.layout),
        "labels": dict(program.labels),
        "threads": dict(program.threads),
    }


def snapshot(inp, builds):
    state = {"input": {name: copy.deepcopy(inp[name])
                       for name in inp.field_names()},
             "seed": inp.seed, "scale": inp.scale}
    for kind, build in builds.items():
        if kind == "baseline":
            state[kind] = program_snapshot(build)
            continue
        state[kind] = program_snapshot(build.program)
        state[kind]["specs"] = [
            (spec.thread, spec.store_pcs, spec.watch, spec.per_address_dedupe)
            for spec in build.specs]
    return state


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_consumer_mutates_a_shared_input_or_build(name):
    workload = resolve_workload(name)
    inp = workload.make_input()
    builds = {kind: workload.build(kind, inp) for kind in KINDS}
    builds = {kind: build for kind, build in builds.items()
              if build is not None}
    before = snapshot(inp, builds)

    reference = workload.reference_output(inp)
    for kind in KINDS:
        workload.build(kind, inp)
    baseline = builds["baseline"]
    for build in builds.values():
        analyze_build(build)
    smt2 = named_config("smt2")
    timed = TimingSimulator(baseline, smt2).run()
    dtt = builds["dtt"]
    timed_dtt = TimingSimulator(
        dtt.program, smt2, engine=dtt.engine(deferred=True)).run()
    profile = profile_program(baseline, name)
    machine = Machine(dtt.program, num_contexts=2)
    machine.attach_engine(dtt.engine())
    functional = run_to_completion(machine)

    assert snapshot(inp, builds) == before
    # the runs read what they were given: the outputs still agree
    assert timed.output == timed_dtt.output == profile.output \
        == functional == reference
