"""DTT safety checks: is a conversion safe under the paper's contract?

The contract (PAPER.md): a data-triggered thread's computation may depend
only on the triggering store's data and on memory that does not change
between the trigger and the consume point.  Nothing at runtime enforces
it — the engine will happily skip "redundant" re-execution of a thread
whose inputs drifted, silently computing wrong answers.  These passes
check the contract statically over a :class:`~repro.workloads.base.DttBuild`
(program + trigger specs) for one :class:`~repro.core.config.DttConfig`.

Every check is grounded in a specific engine behavior (each check
function's docstring carries the detailed justification):

* trigger matching replicates
  :meth:`~repro.core.registry.ThreadRegistry.build_prefilter` for the
  config's ``granularity`` — including the watch-range widening that
  creates false neighbor triggers at cache-line granularity;
* the *trigger window* — the pcs where a support thread may run
  concurrently with the main context — ends at a ``tcheck`` naming the
  thread, because ``DttEngine.on_tcheck`` does not let the main context
  past one until the thread is quiescent (it blocks, runs the pending
  activation synchronously, or inlines it and re-executes the tcheck);
* a re-trigger of the *same* spec is not a race: ``on_triggering_store``
  cancels an executing same-key activation and restarts it against
  current memory (inline activations absorb the duplicate after the new
  value is already visible), so the thread re-reads rather than races;
* with ``allow_cascading=False`` (the paper's base design) a triggering
  store executed by a support thread is a plain store and registers no
  trigger, so only main-region ``tst``/``tstx`` are trigger sources.

The checks are *may*-analyses over the abstract address sets of
:mod:`repro.analysis.dataflow`: they can report a race that concrete
inputs never realize (the address sets over-approximate), but a clean
verdict means no reachable access pattern can violate the contract under
the analyzed config — modulo the framework's documented in-bounds
indexing assumption.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis import cfg as cfgmod
from repro.analysis.dataflow import (TOP, UNDEF, AddressSet,
                                     ReachingDefinitions, ValueAnalysis,
                                     Value, access_summary, const_value,
                                     region_containing, region_value,
                                     union_addresses)
from repro.analysis.findings import ERROR, WARNING, Finding, Severity
from repro.analysis.lint import lint_program
from repro.analysis.symbolic import (NONE, SOME, SymbolicValues,
                                     overlap_verdict, symbolic_access_map,
                                     thread_entry_env)
from repro.core.config import DttConfig
from repro.core.registry import ThreadRegistry, TriggerSpec, widen_ranges
from repro.errors import DttError
from repro.isa.instructions import (is_triggering_store, operand_roles)
from repro.isa.program import Program
from repro.isa.registers import (NUM_REGISTERS, TRIGGER_ADDR_REG,
                                 TRIGGER_OLD_VALUE_REG, TRIGGER_VALUE_REG)

#: check code -> (severity, one-line description); the docs table in
#: docs/architecture.md must list every code here (tests/test_docs_sync.py)
CHECKS: Dict[str, Tuple[Severity, str]] = {
    "dead-trigger": (
        WARNING,
        "a reachable triggering store that no registered trigger spec "
        "can ever match"),
    "dead-thread": (
        WARNING,
        "a registered support thread that no reachable triggering store "
        "can ever fire"),
    "spec-unknown-thread": (
        ERROR,
        "a trigger spec names a support thread the program does not "
        "declare"),
    "read-race": (
        ERROR,
        "main may overwrite memory a support thread reads inside the "
        "trigger window"),
    "write-race": (
        ERROR,
        "support-thread output overlaps main-context accesses with no "
        "tcheck ordering"),
    "consume-before-complete": (
        ERROR,
        "a path consumes support-thread output without passing the "
        "thread's tcheck"),
    "uninitialized-register": (
        ERROR,
        "a support-thread body reads a register never written on some "
        "path"),
    "parameterized-race": (
        ERROR,
        "a main access collides with a parameterized thread access for "
        "some (not all) trigger addresses"),
    "symbolic-unresolved-region": (
        WARNING,
        "a support-thread access resolves to no region concretely or "
        "symbolically — race checks degrade to may-touch-anything"),
}

#: per-check semantic version, baked into finding fingerprints (see
#: :meth:`~repro.analysis.findings.Finding.fingerprint`).  Bump a code's
#: version whenever its *meaning* changes so committed baselines
#: invalidate loudly.  The three race checks are at v2: since the
#: symbolic pass they evaluate per-access overlap for all parameter
#: instantiations (refuting provably-disjoint pairs) instead of testing
#: one union of concrete address sets.
CHECK_VERSIONS: Dict[str, int] = {code: 1 for code in CHECKS}
CHECK_VERSIONS.update({
    "read-race": 2,
    "write-race": 2,
    "consume-before-complete": 2,
})


def _finding(severity, code: str, pc, message: str,
             detail: str = "") -> Finding:
    """A finding stamped with its check's current semantic version."""
    return Finding(severity, code, pc, message, detail=detail,
                   version=CHECK_VERSIONS[code])


# ---------------------------------------------------------------------------
# region models
# ---------------------------------------------------------------------------


class _MainModel:
    """CFG + values + access summary of the main execution region.

    The abstract register file at main entry is all-zero constants: the
    machine constructs every context with a zeroed register file and the
    main context starts fresh at program entry.
    """

    def __init__(self, program: Program):
        self.cfg = cfgmod.main_cfg(program)
        self.values = ValueAnalysis(
            self.cfg,
            {reg: const_value(0) for reg in range(NUM_REGISTERS)},
        )
        self.summary = access_summary(self.values)


class _ThreadModel:
    """CFG + values + access summary of one support thread's body.

    At dispatch ``Context.start_support`` seeds r1/r2/r3 with the trigger
    address / new value / old value; every *other* register is stale —
    whatever the support context's previous activation (of any thread)
    left behind, or the construction-time zeros on first use.  So the
    entry environment is ⊤ everywhere except r1, which is seeded with the
    spec's possible trigger addresses (r2/r3 hold data values, not
    addresses, and stay ⊤).

    Alongside the concrete model runs the symbolic one
    (:mod:`repro.analysis.symbolic`): ``symbolic_addresses`` maps each
    access pc to its address as an affine expression over the trigger
    arguments, or None where the address is not a function of them.
    The race pass consults it per access to refine the concrete
    may-overlap verdict across all parameter instantiations.
    """

    def __init__(self, program: Program, name: str, trigger_value: Value):
        self.cfg = cfgmod.thread_cfg(program, name)
        env = {reg: TOP for reg in range(NUM_REGISTERS)}
        env[TRIGGER_ADDR_REG] = trigger_value
        self.values = ValueAnalysis(self.cfg, env)
        self.summary = access_summary(self.values)
        self.reads = union_addresses(s for _pc, s in self.summary.reads)
        self.writes = union_addresses(s for _pc, s in self.summary.writes)
        self.symbolic = SymbolicValues(self.cfg, thread_entry_env())
        self.symbolic_addresses = symbolic_access_map(self.symbolic)


def _spec_may_match(spec: TriggerSpec, pc: int, addresses: AddressSet,
                    layout, granularity: int) -> bool:
    """Could a triggering store at ``pc`` with this address set fire
    ``spec``?  Mirrors ``ThreadRegistry.matches``: exact on store pcs,
    granularity-widened on watch ranges (via the engine's own
    :func:`~repro.core.registry.widen_ranges`, not a local re-derivation
    — so tstores inserted by the automatic converter get exactly the
    widening the engine will apply at run time); ⊤ address sets may
    match anything watched."""
    if pc in spec.store_pcs:
        return True
    return bool(spec.watch) and addresses.intersects_ranges(
        widen_ranges(spec.watch, granularity), layout)


def _trigger_address_value(spec: TriggerSpec, main: _MainModel,
                           layout, granularity: int) -> Value:
    """The abstract value of r1 (trigger address) at thread entry.

    For a watched spec: the data regions its granularity-widened ranges
    overlap.  For a pc-matched spec: the union of the address sets of the
    named stores.  ⊤ when any source is unresolvable.
    """
    if spec.watch:
        names = set()
        for lo, hi in widen_ranges(spec.watch, granularity):
            for name, (base, size) in layout.items():
                if base < hi and lo < base + max(size, 1):
                    names.add(name)
        return region_value(names) if names else TOP
    sets = [s for pc, s in main.summary.tstores if pc in spec.store_pcs]
    if not sets:
        return TOP
    union = union_addresses(sets)
    if union.top:
        return TOP
    if not union.regions and len(union.exact) == 1:
        return const_value(next(iter(union.exact)))
    names = set(union.regions)
    for address in union.exact:
        name = region_containing(address, layout)
        if name is None:
            return TOP
        names.add(name)
    return region_value(names)


def _trigger_feasible_ranges(
        spec: TriggerSpec, main: _MainModel, layout,
        granularity: int) -> Optional[List[Tuple[int, int]]]:
    """Half-open word ranges r1 can take at thread entry, or None when
    unbounded.

    Mirrors :func:`_trigger_address_value` but keeps word precision: a
    watched spec's r1 is confined to its granularity-widened ranges; a
    pc-matched spec's r1 is the union of the named stores' concrete
    address ranges.  None (⊤) disables symbolic refinement — every
    verdict then falls back to the concrete overlap test.
    """
    if spec.watch:
        return list(widen_ranges(spec.watch, granularity))
    ranges: List[Tuple[int, int]] = []
    for pc, addresses in main.summary.tstores:
        if pc not in spec.store_pcs:
            continue
        if addresses.top:
            return None
        ranges.extend(addresses._ranges(layout))
    return ranges or None


def _overlap_class(
        main_addresses: AddressSet,
        thread_accesses: Sequence[Tuple[int, AddressSet]],
        symbolic_addresses: Dict[int, object],
        feasible: Optional[List[Tuple[int, int]]],
        layout) -> Tuple[str, List[str]]:
    """Classify one main access against a thread's per-access list.

    Returns ``(kind, symbolic_hits)`` where kind is:

    * ``"classic"`` — some concretely-overlapping thread access either
      has no affine address (symbolic refinement impossible) or hits the
      main access for *every* feasible trigger address: the pre-symbolic
      verdict stands;
    * ``"parameterized"`` — every concrete overlap was refined, and at
      least one thread access hits for *some but not all* instantiations
      (``symbolic_hits`` carries their affine forms);
    * ``"disjoint"`` — every concretely-overlapping thread access was
      *refuted*: for each feasible trigger address the symbolic address
      provably misses the main access.  The concrete union overlapped
      only because it conflated different instantiations.
    """
    saw_classic = False
    symbolic_hits: List[str] = []
    refine = feasible is not None and not main_addresses.top
    targets = main_addresses._ranges(layout) if refine else ()
    for tpc, tset in thread_accesses:
        if not main_addresses.overlaps(tset, layout):
            continue
        expr = symbolic_addresses.get(tpc) if refine else None
        if expr is None:
            saw_classic = True
            continue
        verdict = overlap_verdict(expr, feasible, targets)
        if verdict == NONE:
            continue
        if verdict == SOME:
            symbolic_hits.append(expr.describe())
        else:  # ALL, or UNKNOWN (params beyond r1): no refinement
            saw_classic = True
    if saw_classic:
        return "classic", symbolic_hits
    if symbolic_hits:
        return "parameterized", symbolic_hits
    return "disjoint", []


def _thread_tid(program: Program, name: str) -> int:
    """The ``tcheck`` immediate naming this thread: its index in
    declaration order, exactly how ``DttEngine._thread_name`` resolves a
    tid back to a name."""
    return list(program.threads).index(name)


def _tcheck_pcs(main: _MainModel, program: Program, name: str) -> Set[int]:
    tid = _thread_tid(program, name)
    return {
        pc for pc in main.cfg.pcs
        if main.cfg.instruction_at(pc).op == "tcheck"
        and int(main.cfg.instruction_at(pc).a) == tid
    }


def _trigger_window(main: _MainModel, trigger_pcs: Iterable[int],
                    barrier_pcs: Set[int]) -> Set[int]:
    """PCs where an activation fired at ``trigger_pcs`` may still be in
    flight: everything reachable from a trigger's successors without
    passing a barrier ``tcheck``.

    Justification: ``on_tcheck`` never lets the main context fall through
    a tcheck naming thread T while T has a pending or executing
    activation — it blocks until quiescence (deferred/pool mode), runs
    the pending entry synchronously, or inlines it and re-executes the
    tcheck.  So on every path the first matching tcheck is a completion
    barrier, and only the pcs *before* it can race with the thread.  The
    window is mode-agnostic: inline and synchronous modes shrink the
    concurrency to nothing at runtime, but a program is only safe if it
    is safe in the most concurrent mode (deferred + dispatch pool).
    """
    seen: Set[int] = set()
    work: List[int] = []
    for pc in trigger_pcs:
        work.extend(main.cfg.succ_pcs.get(pc, ()))
    while work:
        pc = work.pop()
        if pc in seen or pc not in main.cfg.pcs or pc in barrier_pcs:
            continue
        seen.add(pc)
        work.extend(main.cfg.succ_pcs[pc])
    return seen


# ---------------------------------------------------------------------------
# the passes
# ---------------------------------------------------------------------------


def _check_trigger_coverage(program: Program, registry: ThreadRegistry,
                            config: DttConfig,
                            main: _MainModel) -> List[Finding]:
    """dead-trigger / dead-thread / spec-unknown-thread.

    **dead-trigger** replays the engine's own matching: the engine builds
    a :class:`~repro.core.registry.TriggerPrefilter` for
    ``config.granularity`` and a store that misses it fires nothing
    (counted as ``unmatched_tstores``).  We build the same prefilter, so
    the verdict inherits the exact granularity widening (``lo -= lo % g;
    hi += (-hi) % g``, coalesced) — a store that only matches via a
    widened neighbor range is correctly *not* dead at g=16 even though it
    is dead at g=1.  Only main-region stores are scanned: with
    ``allow_cascading=False`` a support thread's ``tst`` is a plain store
    by engine fiat (``lint`` separately warns ``tstore-in-thread``), and
    with cascading enabled thread-body stores are real sources we
    conservatively assume can match (no flag).

    **dead-thread** is the inverse: a registered spec none of whose
    sources can fire — no reachable main-region triggering store is in
    its ``store_pcs``, and no reachable store's address set can land in
    its (widened) watch ranges.  The thread then never runs and the
    conversion silently degenerates to the baseline.  Suppressed entirely
    when cascading is on and any thread body contains a triggering store,
    because those are then additional sources we don't model.

    **spec-unknown-thread**: ``DttEngine.bind`` resolves each spec's
    thread name against ``program.threads`` and raises ``RegistryError``
    for an unknown name — a run-time crash found at analysis time.
    """
    findings: List[Finding] = []
    layout = program.layout
    granularity = config.granularity
    prefilter = registry.build_prefilter(granularity)
    for pc, addresses in main.summary.tstores:
        if pc in prefilter.store_pcs:
            continue
        if addresses.intersects_ranges(prefilter.ranges, layout):
            continue
        findings.append(_finding(
            WARNING, "dead-trigger", pc,
            "triggering store can never fire a registered thread",
            detail=f"stores to {addresses.describe(layout)} "
                   f"(granularity {granularity})",
        ))
    cascading_sources = config.allow_cascading and any(
        is_triggering_store(program.instructions[pc].op)
        for region in cfgmod.thread_regions(program).values()
        for pc in region
        if pc < len(program.instructions)
    )
    for spec in registry.specs:
        if spec.thread not in program.threads:
            findings.append(_finding(
                ERROR, "spec-unknown-thread", None,
                f"trigger spec names thread {spec.thread!r}, which the "
                "program does not declare",
            ))
            continue
        if cascading_sources:
            continue
        if any(_spec_may_match(spec, pc, addresses, layout, granularity)
               for pc, addresses in main.summary.tstores):
            continue
        findings.append(_finding(
            WARNING, "dead-thread", program.thread_entry_pc(spec.thread),
            f"thread {spec.thread!r} can never be triggered",
            detail=repr(spec),
        ))
    return findings


def _check_races(program: Program, registry: ThreadRegistry,
                 config: DttConfig, main: _MainModel) -> List[Finding]:
    """read-race / write-race / consume-before-complete.

    For each spec we intersect the main region's accesses *inside the
    trigger window* (see :func:`_trigger_window`) with the thread body's
    abstract read/write sets:

    **read-race** — a main-region store in the window overlaps the thread's
    may-read set: the thread observes the location before or after the
    store depending on scheduling, so its output depends on more than the
    triggering datum — the paper's unsoundness case (store a watched
    input twice, plain-store the second time, and the skip logic keeps a
    stale result).  Triggering stores that may re-fire the *same spec*
    are excluded: ``on_triggering_store`` cancels an executing same-key
    activation and restarts it (a pending one is superseded in the queue;
    an inline one absorbs the duplicate having already read the new
    value), so the thread re-reads current memory instead of racing.

    **write-race** — an overlapping access to memory the thread *writes*
    with no ordering possible: either a main store to thread output
    inside the window (last-writer-wins by scheduling), or a main load of
    thread output when the main region contains *no* ``tcheck`` naming
    the thread at all — nothing ever orders the consumer after the
    producer.

    **consume-before-complete** — the program does tcheck the thread, but
    some path reads thread output inside the window, i.e. between a may-
    matching trigger and the barrier.  On that path the engine has not
    absorbed the activation (``on_tcheck`` is the only wait point), so
    the consumer can observe pre-thread memory.  Distinct from
    write-race only in intent: the ordering mechanism exists but a path
    escapes it.

    Since v2, every one of these overlap tests is evaluated *per thread
    access* and refined through the symbolic pass
    (:func:`_overlap_class`): a thread access whose address is affine in
    the trigger address is compared against the main access for every
    feasible trigger value.  Provably-disjoint pairs are dropped (the
    concrete union over-approximated across instantiations); pairs that
    collide only for *some* instantiations demote to the
    **parameterized-race** code — still an error (a reachable
    instantiation races) but telling the reader which affine addresses
    to look at; pairs colliding for all instantiations (or unrefinable
    ones) keep the classic codes.

    **symbolic-unresolved-region** (warning) marks thread accesses both
    analyses gave up on — concrete ⊤ *and* no affine form — because
    every overlap test against them degenerates to "may touch
    anything"; one such access can make the whole verdict vacuous.
    """
    findings: List[Finding] = []
    layout = program.layout
    granularity = config.granularity
    for spec in registry.specs:
        if spec.thread not in program.threads:
            continue  # flagged by trigger coverage
        matching = [
            (pc, addresses) for pc, addresses in main.summary.tstores
            if _spec_may_match(spec, pc, addresses, layout, granularity)
        ]
        if not matching:
            continue  # dead thread: no window to race in
        thread = _ThreadModel(
            program, spec.thread,
            _trigger_address_value(spec, main, layout, granularity))
        feasible = _trigger_feasible_ranges(spec, main, layout, granularity)
        for tpc, tset in list(thread.summary.reads) + list(
                thread.summary.writes):
            if tset.top and thread.symbolic_addresses.get(tpc) is None:
                findings.append(_finding(
                    WARNING, "symbolic-unresolved-region", tpc,
                    f"thread {spec.thread!r} access resolves to no "
                    "region concretely or symbolically",
                    detail=f"thread={spec.thread}",
                ))
        barriers = _tcheck_pcs(main, program, spec.thread)
        window = _trigger_window(main, (pc for pc, _ in matching), barriers)
        matching_pcs = {pc for pc, _ in matching}
        for pc, addresses in main.summary.writes:
            if pc not in window or pc in matching_pcs:
                continue
            kind, hits = _overlap_class(
                addresses, thread.summary.reads,
                thread.symbolic_addresses, feasible, layout)
            if kind == "classic":
                findings.append(_finding(
                    ERROR, "read-race", pc,
                    f"store may overwrite memory thread {spec.thread!r} "
                    "reads while it can still be in flight",
                    detail=f"{addresses.describe(layout)} vs thread reads "
                           f"{thread.reads.describe(layout)}",
                ))
            elif kind == "parameterized":
                findings.append(_finding(
                    ERROR, "parameterized-race", pc,
                    f"store may overwrite memory thread {spec.thread!r} "
                    "reads for some trigger addresses",
                    detail=f"{addresses.describe(layout)} vs thread reads "
                           f"at {', '.join(hits)}",
                ))
            kind, hits = _overlap_class(
                addresses, thread.summary.writes,
                thread.symbolic_addresses, feasible, layout)
            if kind == "classic":
                findings.append(_finding(
                    ERROR, "write-race", pc,
                    f"store overlaps output of thread {spec.thread!r} "
                    "inside its trigger window",
                    detail=f"{addresses.describe(layout)} vs thread writes "
                           f"{thread.writes.describe(layout)}",
                ))
            elif kind == "parameterized":
                findings.append(_finding(
                    ERROR, "parameterized-race", pc,
                    f"store overlaps output of thread {spec.thread!r} "
                    "for some trigger addresses",
                    detail=f"{addresses.describe(layout)} vs thread writes "
                           f"at {', '.join(hits)}",
                ))
        for pc, addresses in main.summary.reads:
            if pc not in window:
                continue
            kind, hits = _overlap_class(
                addresses, thread.summary.writes,
                thread.symbolic_addresses, feasible, layout)
            if kind == "disjoint":
                continue
            if kind == "parameterized":
                findings.append(_finding(
                    ERROR, "parameterized-race", pc,
                    f"load consumes output of thread {spec.thread!r} "
                    "for some trigger addresses, with no ordering",
                    detail=f"{addresses.describe(layout)} vs thread writes "
                           f"at {', '.join(hits)}",
                ))
            elif barriers:
                findings.append(_finding(
                    ERROR, "consume-before-complete", pc,
                    f"load consumes output of thread {spec.thread!r} "
                    "on a path with no intervening tcheck",
                    detail=f"{addresses.describe(layout)} vs thread "
                           f"writes {thread.writes.describe(layout)}",
                ))
            else:
                findings.append(_finding(
                    ERROR, "write-race", pc,
                    f"load consumes output of thread {spec.thread!r} "
                    "but the program never tchecks it",
                    detail=f"{addresses.describe(layout)} vs thread "
                           f"writes {thread.writes.describe(layout)}",
                ))
    return findings


def _check_uninitialized(program: Program) -> List[Finding]:
    """uninitialized-register, over support-thread bodies only.

    At dispatch ``Context.start_support`` writes exactly r1/r2/r3; every
    other register of the support context holds whatever the *previous*
    activation on that context left there (zeros only on the context's
    very first use).  Under the inline fallback (queue overflow,
    single-context tcheck) the body instead runs on the main context with
    main's live registers, saved and restored around the call.  A body
    that reads a register it never wrote therefore computes from
    schedule-dependent garbage — a contract violation (the thread depends
    on state other than the triggering store's data), reported as an
    error.

    The main region is exempt: its context is constructed zeroed and
    starts fresh, so a read-before-write there is a well-defined read of
    zero (common builder idiom for accumulators).

    Implemented as reaching definitions with r1/r2/r3 pre-defined at
    entry and an explicit "undefined" pseudo-definition that survives
    joins, so only registers undefined on *some* path are flagged (a
    register defined on every path is fine even if no single dominating
    definition exists).
    """
    findings: List[Finding] = []
    entry_regs = (TRIGGER_ADDR_REG, TRIGGER_VALUE_REG, TRIGGER_OLD_VALUE_REG)
    for name in program.threads:
        tcfg = cfgmod.thread_cfg(program, name)
        reaching = ReachingDefinitions(tcfg, entry_regs=entry_regs)
        for pc in sorted(tcfg.pcs):
            instruction = tcfg.instruction_at(pc)
            _dest, sources = operand_roles(instruction.op)
            if not sources:
                continue
            defs = reaching.defs_at(pc)
            reported: Set[int] = set()
            for slot in sources:
                reg = getattr(instruction, slot)
                if reg in reported:
                    continue
                if UNDEF in defs.get(reg, frozenset()):
                    reported.add(reg)
                    findings.append(_finding(
                        ERROR, "uninitialized-register", pc,
                        f"thread {name!r} reads r{reg} before any "
                        "definition",
                        detail=f"thread={name}",
                    ))
    return findings


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_program(
    program: Program,
    specs: Union[ThreadRegistry, Sequence[TriggerSpec], None] = None,
    config: Optional[DttConfig] = None,
    include_lint: bool = True,
) -> List[Finding]:
    """Run every applicable pass; returns deduplicated, sorted findings.

    Lint runs first (the structural checks gate the semantic ones —
    there is no point racing a thread body that never ``treturn``\\ s);
    the uninitialized-register pass needs only the program; the trigger-
    coverage and race passes additionally need the trigger ``specs`` and
    the engine ``config`` (default :class:`~repro.core.config.DttConfig`:
    granularity 1, no cascading) and are skipped without specs.
    """
    config = config if config is not None else DttConfig()
    findings: List[Finding] = []
    if include_lint:
        findings.extend(lint_program(program))
    findings.extend(_check_uninitialized(program))
    if specs is not None:
        registry = (specs if isinstance(specs, ThreadRegistry)
                    else ThreadRegistry(specs))
        if len(registry):
            main = _MainModel(program)
            findings.extend(
                _check_trigger_coverage(program, registry, config, main))
            findings.extend(_check_races(program, registry, config, main))
    unique: List[Finding] = []
    seen: Set[Finding] = set()
    for finding in findings:
        if finding not in seen:
            seen.add(finding)
            unique.append(finding)
    unique.sort(key=Finding.sort_key)
    return unique


def analyze_build(build, config: Optional[DttConfig] = None,
                  include_lint: bool = True) -> List[Finding]:
    """Analyze a :class:`~repro.workloads.base.DttBuild` (program +
    specs), or a bare baseline :class:`Program`."""
    if isinstance(build, Program):
        return analyze_program(build, config=config,
                               include_lint=include_lint)
    return analyze_program(build.program, build.specs, config=config,
                           include_lint=include_lint)


def _workload_build(workload, kind: str, seed: Optional[int],
                    scale: Optional[int]):
    from repro.workloads.suite import get_workload

    if isinstance(workload, str):
        workload = get_workload(workload)
    build = workload.build(kind, workload.make_input(seed, scale))
    if build is None:
        raise DttError(
            f"workload {workload.name!r} has no address-watched variant")
    return build


def analyze_workload(
    workload: Union[str, object],
    kind: str = "dtt",
    seed: Optional[int] = None,
    scale: Optional[int] = None,
    config: Optional[DttConfig] = None,
) -> List[Finding]:
    """Analyze one bundled workload's build of the given ``kind``
    (``baseline`` / ``dtt`` / ``dtt-watch``)."""
    return analyze_build(_workload_build(workload, kind, seed, scale),
                         config=config)


def analysis_summary(findings: Sequence[Finding]) -> Dict:
    """Aggregate counts for manifests and ``compare``."""
    codes: Dict[str, int] = {}
    errors = warnings = 0
    for finding in findings:
        codes[finding.code] = codes.get(finding.code, 0) + 1
        if finding.severity is Severity.ERROR:
            errors += 1
        else:
            warnings += 1
    return {
        "errors": errors,
        "warnings": warnings,
        "codes": {code: codes[code] for code in sorted(codes)},
    }


def summarize_build(build, name: str, kind: str,
                    config: Optional[DttConfig] = None) -> Dict:
    """One manifest-ready summary row for a built workload."""
    summary = analysis_summary(analyze_build(build, config=config))
    summary["workload"] = name
    summary["kind"] = kind
    return summary


def summarize_workload(
    name: str,
    kind: str = "dtt",
    seed: Optional[int] = None,
    scale: Optional[int] = None,
    config: Optional[DttConfig] = None,
) -> Dict:
    """One manifest-ready summary row for a workload build."""
    return summarize_build(_workload_build(name, kind, seed, scale), name,
                           kind, config=config)
