"""The timing aspect of compiled blocks, for the solo run-ahead.

:mod:`repro.machine.superblock` documents both tiers' blocks, this
aspect included.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import List

from repro.machine.superblock import (CYCLE_LIMIT, ENGINE, TAKEN, Block,
                                      _indent, bind, block_namespace,
                                      lazy_table, shape, shared_code)
from repro.timing.branch import HISTORY_BITS, TABLE_BITS
from repro.timing.core import (BRANCH, ENDS_CYCLE, ENTRY, ISSUE, LOAD, STORE,
                               folded_latency)

#: synthetic filename of timed blocks; profiler frames show as
#: (FILENAME, line, "tb_<entry_pc>")
FILENAME = "<timed>"
PREFIX = "tb_"

_TABLE_MASK = (1 << TABLE_BITS) - 1
_HISTORY_MASK = (1 << HISTORY_BITS) - 1
#: a 2-bit saturating counter's next value after a taken / not-taken
#: outcome, indexed by its value
_AFTER_TAKEN = (1, 2, 3, 3)
_AFTER_NOT_TAKEN = (0, 0, 1, 2)

#: every configuration value timed code bakes in (part of its cache
#: key): ``slow_miss`` says every L1 miss ends the cycle on its own
#: latency.  The cycle limit is not baked in: each call passes it as
#: ``limit``.
Config = namedtuple("Config", "width hide penalty core_id single_core "
                    "l1_latency slow_miss line_shift set_mask tag_shift")


class HotBlocks:
    """One core's compiled blocks for one timed run.

    ``table`` is the core's issue table with every block entry's kind
    replaced by :data:`~repro.timing.core.ENTRY`; ``hot[pc]`` is the
    :func:`~repro.machine.superblock.lazy_table` entry there.  The
    namespace binds this run's memory, L1, hierarchy, predictor, class
    tally and the load hide latency the template's rule reads;
    :meth:`release` drops it when the run ends.
    """

    def __init__(self, sim, core):
        machine = sim.machine
        program = machine.program
        self.instructions = program.instructions
        #: PCs of engine opcodes, where the run-ahead side-exits
        self.engine = sim._engine_pcs
        self.rows = core.table
        params, hierarchy = core.params, sim.hierarchy
        l1 = hierarchy.l1[core.core_id]
        l1_latency = hierarchy.params.l1_latency
        hide, penalty = params.load_hide_latency, params.mispredict_penalty
        # the load rule is monotone: if the least miss latency (an L2
        # hit) ends the cycle unchanged, so does every miss
        least = l1_latency + hierarchy.params.l2_latency
        line_shift = l1._line_words.bit_length() - 1
        self.config = Config(
            params.issue_width, hide, penalty, core.core_id,
            hierarchy.num_cores == 1, l1_latency,
            folded_latency(LOAD, least, hide, penalty) == least,
            line_shift, l1._set_mask, line_shift + l1._tag_shift)
        self.namespace = block_namespace(
            machine, _S=l1._sets, _L1=l1.stats, _acc=hierarchy.access,
            _PR=sim.predictor, _C=sim.predictor._counters, _UP=_AFTER_TAKEN,
            _DN=_AFTER_NOT_TAKEN, _T=core.class_tally, hide=hide)
        self.hot = lazy_table(program, True, self.compile)
        self.table = [row if self.hot[pc] is None else (ENTRY,) + row[1:]
                      for pc, row in enumerate(core.table)]
        self.compiled = 0
        self.seconds = 0.0

    def compile(self, entry: int, length: int, is_loop: bool):
        """Bind the block at ``entry`` to its shared code, with the entry's
        exit table (an exit into an engine opcode is ``ENGINE``)."""
        started = time.perf_counter()
        pcs = range(entry, entry + length)
        key = (PREFIX, self.config, is_loop,
               shape(self.instructions, pcs, entry),
               tuple(self.rows[pc][1:3] for pc in pcs))
        code, statics, (exits, branches) = shared_code(
            key, lambda: TimedBlock(self, entry, length, is_loop).generate(),
            FILENAME)
        exits = tuple((ENGINE if kind <= TAKEN and entry + pc in self.engine
                       else kind, d, entry + pc) for kind, d, pc in exits)
        bases = tuple(entry + pc & _TABLE_MASK for pc in branches)
        function = bind(code, f"{PREFIX}{entry}", self.namespace,
                        (exits,) + bases + statics)
        self.compiled += 1
        self.seconds += time.perf_counter() - started
        return function

    def release(self) -> None:
        """Drop the compiled functions and their namespace."""
        self.namespace.clear()
        self.table = self.hot = None


class TimedBlock(Block):
    """The timing aspect composed onto :class:`~repro.machine.superblock.
    Block`: the source of one timed block, relative to its entry."""

    NAME, PARAMS = "tb", "ctx, now, busy, k, retired, it, iss, budget, limit"

    def __init__(self, hb: HotBlocks, entry: int, length: int,
                 is_loop: bool):
        super().__init__(hb.instructions, entry, length, is_loop)
        self.cfg = hb.config
        #: per position: its issue-table row
        self.rows = hb.rows[entry:entry + length]

    # -- timing --------------------------------------------------------------

    def _width(self, after) -> List[str]:
        """Issue in a free slot; the last slot ends the cycle.  ``after``
        is ``(positions complete, next pc)`` once this instruction issued.
        """
        j = after[0] - 1
        return [f"if _we == {j}:",
                f"    _we = {j + self.cfg.width}; now += 1",
                "    if now > limit: _L = 1; "
                + self._exit(CYCLE_LIMIT, *after)]

    def _stall(self, latency, after) -> List[str]:
        """End the cycle on ``latency`` (an int, or the local holding it)
        and take the stall after it.

        ``s`` counts stalls and ``sl`` their cycles beyond the first, so
        that ``now - now0 - sl`` counts the cycles that issued.  A
        cycle-limit exit leaves the latency that ended the cycle in
        ``_L``.
        """
        j = after[0] - 1
        return [f"_we = {j + self.cfg.width}; s += 1; sl += {latency} - 1; "
                f"now += {latency}; busy = now",
                f"if now > limit: _L = {latency}; "
                + self._exit(CYCLE_LIMIT, *after)]

    def _issue(self, kind: int, latency: int, after,
               correct: bool = True) -> List[str]:
        """The issue template folded for ``kind`` at a ``latency`` known at
        emit time (and a branch's outcome ``correct``): stall, or a slot."""
        cfg = self.cfg
        stall = folded_latency(kind, latency, cfg.hide, cfg.penalty, correct)
        return self._stall(stall, after) if stall else self._width(after)

    def _probe(self) -> str:
        cfg = self.cfg
        return (f"_w = _S[_a >> {cfg.line_shift} & {cfg.set_mask}]; "
                f"_g = _a >> {cfg.tag_shift}")

    # -- the emitter's hooks -------------------------------------------------

    def _skip(self, lo: int, hi: int) -> List[str]:
        lines = super()._skip(lo, hi)
        return [f"{line}; _we += {hi - lo}" for line in lines]

    def _back_edge(self) -> List[str]:
        return [f"_we -= {self.length}"] + super()._back_edge()

    def _instruction(self, j: int, ins) -> List[str]:
        cfg = self.cfg
        lines = super()._instruction(j, ins)
        kind, latency = self.rows[j][:2]
        after = (j + 1, self.targets[j] if ins.op == "jmp" else j + 1)
        if kind == LOAD:
            # a hit folds the template; a miss runs its load rule, or stalls
            lines += [self._probe() + "; _v = _w.pop(_g, None)",
                      "if _v is None:",
                      f"    _m += 1; latency = _acc({cfg.core_id}, _a, False)"]
            miss = self._stall("latency", after)
            if not cfg.slow_miss:
                miss = ([ISSUE[LOAD][1], f"if {ENDS_CYCLE}:"] + _indent(miss)
                        + ["else:"] + _indent(self._width(after)))
            hit = self._issue(LOAD, cfg.l1_latency, after)
            return (lines + _indent(miss) + ["else:", "    _w[_g] = _v"]
                    + _indent(hit))
        if kind == STORE:
            if cfg.single_core:
                lines += [self._probe(),
                          "if _w.pop(_g, None) is None: "
                          f"_m += 1; _acc({cfg.core_id}, _a, True)",
                          "_w[_g] = True"]
            else:
                lines.append(f"_acc({cfg.core_id}, _a, True)")
        return lines + self._issue(kind, latency, after)

    def _branch(self, j: int, ins):
        """The inline gshare update, then the taken and fall-through
        timing, each folded for a wrong and a right prediction."""
        lines, cond, _, _ = super()._branch(j, ins)
        index = f"_b{len(self.bound)} ^ _hi"
        self.bound.append(j)
        if _HISTORY_MASK & ~_TABLE_MASK:
            index = f"({index}) & {_TABLE_MASK}"
        latency = self.rows[j][1]

        def edge(history, update, test, after):
            return ([f"_hi = {history} & {_HISTORY_MASK}; "
                     f"_C[_i] = {update}[_v]", f"if {test}:", "    _q += 1"]
                    + _indent(self._issue(BRANCH, latency, after, False))
                    + ["else:"]
                    + _indent(self._issue(BRANCH, latency, after)))

        return (lines + [f"_i = {index}; _v = _C[_i]"], cond,
                edge("(_hi << 1 | 1)", "_UP", "_v < 2",
                     (j + 1, self.targets[j])),
                edge("_hi << 1", "_DN", "_v > 1", (j + 1, j + 1)))

    def _prologue(self, room: str = "budget") -> List[str]:
        lines = (["_t = retired + k"] + super()._prologue("budget - _t"))
        if self.bound:
            lines.append("_hi = _PR._history")
        return lines + [f"_we = {self.cfg.width - 1} - k; now0 = now",
                        "s = sl = _m = _q = 0"]

    def _counts(self):
        kinds = [row[0] for row in self.rows]
        classes = [row[2] for row in self.rows]
        single = self.cfg.single_core
        return ([(f"_T[{index}]", [cls == index for cls in classes], "")
                 for index in sorted(set(classes))]
                + super()._counts()
                + [("_L1.hits", [kind == LOAD or (kind == STORE and single)
                                 for kind in kinds], " - _m"),
                   ("_PR.lookups", [kind == BRANCH for kind in kinds], "")])

    def _finish(self) -> List[str]:
        cfg = self.cfg
        lines = ["ctx.pc = _pc"]
        if self.bound:
            lines.append("_PR.mispredicts += _q; _PR._history = _hi")
        # a cycle-limit exit: the limit may have cut short the stall
        # after a latency-ended cycle, which then takes one cycle
        retired = self._total([True] * self.length)
        return lines + [
            f"if _x == {CYCLE_LIMIT} and _L > 1 and now - _L >= limit: "
            "now -= _L - 1; s -= 1; sl -= _L - 1",
            f"k = _d + {cfg.width - 1} - _we; c = now - now0 - sl",
            f"return (now, busy, k, _t + {retired} - k, it + c + s, "
            "iss + c, _x)"]

