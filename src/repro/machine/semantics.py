"""One source for the instruction semantics.

:data:`SEMANTICS` holds one source template per non-engine opcode, and
every form that executes an instruction is generated from it with
``compile``/``exec``, once per process: the step handlers
(:data:`STEP_HANDLERS`: ``Machine.step``, and the cold path of
``Machine.run`` and of the timing model's run-aheads), the compiled
blocks of both ``Machine.run`` and the timing model
(:mod:`repro.machine.superblock`), and the constant folding of the
static analyses (:func:`evaluate`).  The :data:`ENGINE_OPCODES` have
no entry.  The observers' shadow transfers are rendered into compiled
blocks by :func:`transfer`, and a load's update of the machine's one
load history, which decides whether it is redundant, is :data:`HISTORY`
in both a step handler and a block.

An entry is ``(kind, effect, next)``.  For ``ALU`` the effect is the
value written to register ``a``; for ``LOAD``/``STORE`` the word
address; for ``BRANCH`` the taken condition; for ``FLOW`` (``jmp``,
``call``, ``ret``, ``out``, ``nop``) zero or more statements, and
``next`` is the next-PC expression.

Templates are :meth:`str.format` strings over the operand slots
``{a}``/``{b}``/``{c}`` (a register or an immediate, per the opcode's
signature; ``{b:int}``/``{b:float}`` coerce), the fall-through PC
``{nxt}``, the branch target ``{target}`` and the output buffer's
``{out}``.  Each form renders them in its own terms: ``regs[i.b]`` in a
step handler, the local ``r5`` in a superblock.
Loads and stores share one memory guard, :data:`GUARD`; an address it
accepts indexes the memory's dense word list, and any other takes the
checked :class:`~repro.machine.memory.Memory` method, which grows the
list, reaches the sparse words or raises the fault.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.errors import ExecutionFault
from repro.isa.instructions import OPCODES, operand_roles

ALU, LOAD, STORE, BRANCH, FLOW = "alu", "load", "store", "branch", "flow"

#: synthetic filename of the generated handlers; profiler frames show as
#: (FILENAME, line, "<form>_<opcode>")
FILENAME = "<semantics>"


class Semantics(NamedTuple):
    """The source template of one opcode (see the module docstring)."""

    kind: str
    effect: str
    next: str = "{nxt}"


def trunc_div(b: int, c: int) -> int:
    """C-style integer division (truncate toward zero)."""
    if c == 0:
        raise ExecutionFault("integer division by zero")
    q = abs(b) // abs(c)
    return q if (b >= 0) == (c >= 0) else -q


def fdiv(b, c) -> float:
    """Floating-point division; the divisor is checked first."""
    denominator = float(c)
    if denominator == 0.0:
        raise ExecutionFault("floating-point division by zero")
    return float(b) / denominator


def fsqrt(b) -> float:
    """Square root of ``float(b)``; negative values fault."""
    value = float(b)
    if value < 0.0:
        raise ExecutionFault(f"fsqrt of negative value {value}")
    return value ** 0.5


#: names the templates may call, bound into every generated namespace
HELPERS = {"_idiv": trunc_div, "_fdiv": fdiv, "_fsqrt": fsqrt,
           "ExecutionFault": ExecutionFault}

#: opcodes whose handlers touch the DTT engine (``tst``/``tstx`` trigger,
#: ``tcheck`` may block, ``treturn`` ends a support thread) or end the
#: context (``halt``).  They have no template and no fast path:
#: ``Machine.run`` stops at them and executes them with ``step()``, and
#: the timing model's solo run-ahead side-exits on them.
ENGINE_OPCODES = frozenset(["tst", "tstx", "tcheck", "treturn", "halt"])

_S = Semantics

#: every non-engine opcode's semantics, keyed like ``OPCODES``
SEMANTICS: Dict[str, Semantics] = {
    "li": _S(ALU, "{b}"),
    "mov": _S(ALU, "{b}"),
    "add": _S(ALU, "{b} + {c}"),
    "sub": _S(ALU, "{b} - {c}"),
    "mul": _S(ALU, "{b} * {c}"),
    "idiv": _S(ALU, "_idiv({b:int}, {c:int})"),
    "imod": _S(ALU, "{b:int} - _idiv({b:int}, {c:int}) * {c:int}"),
    "and_": _S(ALU, "{b:int} & {c:int}"),
    "or_": _S(ALU, "{b:int} | {c:int}"),
    "xor": _S(ALU, "{b:int} ^ {c:int}"),
    "shl": _S(ALU, "{b:int} << {c:int}"),
    "shr": _S(ALU, "{b:int} >> {c:int}"),
    "slt": _S(ALU, "1 if {b} < {c} else 0"),
    "sle": _S(ALU, "1 if {b} <= {c} else 0"),
    "sgt": _S(ALU, "1 if {b} > {c} else 0"),
    "sge": _S(ALU, "1 if {b} >= {c} else 0"),
    "seq": _S(ALU, "1 if {b} == {c} else 0"),
    "sne": _S(ALU, "1 if {b} != {c} else 0"),
    "addi": _S(ALU, "{b} + {c}"),
    "subi": _S(ALU, "{b} - {c}"),
    "muli": _S(ALU, "{b} * {c}"),
    "andi": _S(ALU, "{b:int} & {c:int}"),
    "ori": _S(ALU, "{b:int} | {c:int}"),
    "xori": _S(ALU, "{b:int} ^ {c:int}"),
    "shli": _S(ALU, "{b:int} << {c:int}"),
    "shri": _S(ALU, "{b:int} >> {c:int}"),
    "slti": _S(ALU, "1 if {b} < {c} else 0"),
    "sgti": _S(ALU, "1 if {b} > {c} else 0"),
    "seqi": _S(ALU, "1 if {b} == {c} else 0"),
    "fadd": _S(ALU, "{b:float} + {c:float}"),
    "fsub": _S(ALU, "{b:float} - {c:float}"),
    "fmul": _S(ALU, "{b:float} * {c:float}"),
    "fdiv": _S(ALU, "_fdiv({b}, {c})"),
    "fsqrt": _S(ALU, "_fsqrt({b})"),
    "fabs": _S(ALU, "abs({b:float})"),
    "fneg": _S(ALU, "-{b:float}"),
    "itof": _S(ALU, "{b:float}"),
    "ftoi": _S(ALU, "{b:int}"),
    "ld": _S(LOAD, "{b} + {c}"),
    "ldx": _S(LOAD, "{b} + {c}"),
    "st": _S(STORE, "{b} + {c}"),
    "stx": _S(STORE, "{b} + {c}"),
    "beq": _S(BRANCH, "{a} == {b}"),
    "bne": _S(BRANCH, "{a} != {b}"),
    "blt": _S(BRANCH, "{a} < {b}"),
    "ble": _S(BRANCH, "{a} <= {b}"),
    "bgt": _S(BRANCH, "{a} > {b}"),
    "bge": _S(BRANCH, "{a} >= {b}"),
    "beqz": _S(BRANCH, "{a} == 0"),
    "bnez": _S(BRANCH, "{a} != 0"),
    "jmp": _S(FLOW, "", "{target}"),
    "call": _S(FLOW, "ctx.call_stack.append({nxt})\n"
                     "if len(ctx.call_stack) > 10_000:\n"
                     "    raise ExecutionFault("
                     "'call stack overflow (runaway recursion?)')",
               "{target}"),
    "ret": _S(FLOW, "if not ctx.call_stack:\n"
                    "    raise ExecutionFault("
                    "'ret with empty call stack at pc %d' % pc)",
              "ctx.call_stack.pop()"),
    "out": _S(FLOW, "{out}({a})"),
    "nop": _S(FLOW, ""),
}

# -- the shared memory access -------------------------------------------------

#: the fast-path condition of every load and store (address in ``_a``):
#: an exact ``int`` inside the memory's dense word list ``_words``, of
#: length ``_dense``
GUARD = "_a.__class__ is int and 0 <= _a < _dense"

#: the fast path: a list index, and a store sets its written flag in
#: ``_W`` (the memory's ``_written``)
_FAST = {LOAD: ["{a} = _words[_a]"],
         STORE: ["_words[_a] = {a}", "_W[_a] = 1"]}
_COUNT = {LOAD: "_mem.load_count += 1", STORE: "_mem.store_count += 1"}
#: a step handler's checked fallback, through the machine ``m``, which
#: grows the list, reaches the sparse words or faults; a store peeks
#: first, so a bad address faults on the peek exactly as the engine's
#: ``tst`` does
_CHECKED = {LOAD: ["{a} = m.memory.load(_a)"],
           STORE: ["_old = m.memory.peek(_a)", "m.memory.store(_a, {a})"]}
#: a compiled block's fallback, through the memory's uncounted
#: ``peek``/``poke`` (``_peek``/``_poke``), as one :class:`GuardMiss` line
_MISS = {LOAD: "{a} = _peek(_a)", STORE: "_poke(_a, {a})"}


class GuardMiss(str):
    """A compiled block's line for an address its guard rejects.  An
    address inside the address space is read or written there; one that
    faults raises, and the block takes the exception on this line as the
    guard's hand-back of the instruction."""


def access(sem: Semantics, ops: Dict[str, Src], checked: bool = True,
           old: bool = False) -> List[str]:
    """Lines of one load or store behind :data:`GUARD`.

    In a step handler (``checked``) the fast path counts the access and
    a failed guard takes the checked ``Memory`` method; in a compiled
    block, which batches the counters, it takes one :class:`GuardMiss`
    line.  ``old`` keeps a store's overwritten word in ``_old`` for the
    store hooks and transfers.
    """
    fast = [_COUNT[sem.kind]] if checked else []
    if old:
        fast.append("_old = _words[_a]")
    fast += _FAST[sem.kind]
    lines = ([f"_a = {sem.effect.format(**ops)}", f"if {GUARD}:"]
             + ["    " + line.format(**ops) for line in fast] + ["else:"])
    if checked:
        return lines + ["    " + line.format(**ops)
                        for line in _CHECKED[sem.kind]]
    miss = ("_old = _peek(_a); " if old else "") + _MISS[sem.kind]
    return lines + [GuardMiss("    " + miss.format(**ops))]


# -- operand rendering --------------------------------------------------------


class Src(str):
    """A source fragment; format spec ``int``/``float`` coerces it."""

    def __format__(self, spec: str) -> str:
        return f"{spec}({self})" if spec else str(self)


class ExactInt(Src):
    """An exact ``int`` literal: the ``int`` coercion folds away."""

    def __format__(self, spec: str) -> str:
        return str(self) if spec == "int" else Src.__format__(self, spec)


def operands(op: str, register: Callable[[str], str],
             immediate: Callable[[str], Src]) -> Dict[str, Src]:
    """``{slot: source}`` for ``op``'s operand slots, in signature order."""
    slots = {}
    names = iter("abc")
    for code in OPCODES[op].signature:
        if code == "L":
            continue
        slot = next(names)
        slots[slot] = Src(register(slot)) if code == "R" else immediate(slot)
    return slots


# -- the generated forms ------------------------------------------------------

#: the observer hook each kind reports through besides ``on_instruction``
#: (ALU and FLOW ops have none)
KIND_HOOKS = {LOAD: "on_load", STORE: "on_store", BRANCH: "on_branch"}

#: a load's update of the machine's
#: :class:`~repro.machine.events.LoadHistory`, the one place the
#: redundancy verdict is computed: ``{redundant}`` is set, from the map
#: ``{last}`` with getter ``{get}``, by the loaded ``{value}`` at ``_a``
HISTORY = "{redundant} = {get}(_a) == {value}; {last}[_a] = {value}"

#: per kind: (hook arguments after ``ctx, pc``, step result)
_HOOK_ARGS = {
    LOAD: ("_a, {a}", "(_a, None)"),
    STORE: ("_a, _old, {a}, False", "(_a, None)"),
    BRANCH: ("_t, _n", "(None, _t)"),
}

#: shadow kind of an ALU op without register sources
CONST = "const"


def shadow_names(shadow) -> Tuple[str, ...]:
    """The names of ``shadow``'s objects that compiled blocks bind from
    the observer's ``shadow_state()``, in order."""
    return shadow.state + shadow.registers + shadow.counters


def _shadow_kind(op: str):
    """Which :class:`~repro.machine.events.Shadow` entry applies to
    ``op``: ``"load"``, ``"store"``, ``"alu"``, ``"const"``,
    ``"branch"``, or ``None``."""
    kind = SEMANTICS[op].kind
    if kind == ALU:
        return ALU if operand_roles(op)[1] else CONST
    return kind if kind != FLOW else None


#: per opcode: its shadow kind, its register roles and its op class
#: value, looked up once per transfer rendered
_SHADOW_OPS = {op: (_shadow_kind(op), operand_roles(op),
                    OPCODES[op].op_class.value) for op in SEMANTICS}


class _Register(Src):
    """A register-index slot of a shadow template.  Formatted with the
    name of a register file (``{dest:taint}``) it renders that file's
    entry for the register, through ``entry(file, written)``; ``written``
    is set for the destination slot."""

    def __new__(cls, source: str, entry: Callable, written: bool = False):
        slot = super().__new__(cls, source)
        slot.entry, slot.written = entry, written
        return slot

    def __format__(self, spec: str) -> str:
        if spec in ("", "int", "float"):
            return Src.__format__(self, spec)
        return self.entry(spec, self.written)


class _OpClass(str):
    """The op-class slot of a shadow template: the class value as a
    string literal.  Formatted with the name of a counter
    (``{op_class:counts}``) it renders that counter's count of the
    class, through ``count(counter, class value)``."""

    def __new__(cls, value: str, count: Callable):
        slot = super().__new__(cls, value)
        slot.count = count
        return slot

    def __format__(self, spec: str) -> str:
        return self.count(spec, str(self)) if spec else repr(str(self))


class _Renamed(dict):
    """Template slots: the operand slots given, ``pc`` rendered by
    ``pc()``, each of ``cells`` by ``cell(renamed name)``, and every
    other name renamed into observer ``index``'s namespace.  ``pc`` and
    the cells render on first use, so a form binds only what a template
    uses."""

    def __init__(self, index: int, cells, cell: Callable, pc: Callable,
                 **slots):
        super().__init__(slots)
        self.index, self.cells, self.cell, self.pc = index, cells, cell, pc

    def __missing__(self, name: str) -> str:
        if name == "pc":
            return self.pc()
        renamed = f"_{self.index}_{name}"
        return self.cell(renamed) if name in self.cells else renamed


def transfer(op: str, index: int, shadow, value: str,
             register: Callable[[str], str], pc: Callable[[], str],
             entry: Callable[[str, str, bool], str],
             cell: Callable[[str], str],
             count: Callable[[str, str], str]) -> List[str]:
    """Observer ``index``'s shadow transfer for ``op``, rendered for a
    compiled block.

    The block says what differs: ``value`` is the loaded or stored
    register, ``register(slot)`` the index of operand ``slot``, ``pc()``
    the instruction's PC, ``entry(file, register, written)`` that
    register's entry in register file ``file`` (renamed; ``written`` for
    the destination), ``cell(name)`` the instruction's cell ``name``
    and ``count(counter, op class)`` the class's count in ``counter``
    (both renamed).  A load's ``{redundant}`` is ``_rd``, which the
    block sets by :data:`HISTORY` before the transfers.
    """
    kind, (dest, sources), op_class = _SHADOW_OPS[op]
    template = getattr(shadow, kind) if kind else ""
    if not template:
        return []

    def slot(name: str) -> _Register:
        source = register(name)
        return _Register(source, lambda file, written: entry(
            f"_{index}_{file}", source, written), name == dest)

    slots = _Renamed(index, shadow.cells, cell, pc, address="_a",
                     old="_old", value=value, redundant="_rd",
                     op_class=_OpClass(op_class, lambda counter, key: count(
                         f"_{index}_{counter}", key)))
    if kind == STORE:
        slots["src"] = slot("a")
    if dest:
        slots["dest"] = slot(dest)
    if sources:
        slots.update(first=slot(sources[0]), second=slot(sources[-1]))
    return template.format_map(slots).splitlines()


def _body(op: str) -> List[str]:
    """The statements of ``op``'s step handler."""
    sem = SEMANTICS[op]
    kind = sem.kind
    ops = operands(op, lambda s: f"regs[i.{s}]", lambda s: Src(f"i.{s}"))
    env = dict(ops, nxt="pc + 1", target="i.target", out="m.output.append")
    hook = KIND_HOOKS.get(kind)
    args, result = _HOOK_ARGS.get(kind, ("", "(None, None)"))
    lines = ["regs = ctx.regs"] if "R" in OPCODES[op].signature else []
    if kind in (LOAD, STORE):
        lines += ["_mem = m.memory", "_words = _mem._words",
                  "_dense = len(_words)"]
        if kind == STORE:
            lines.append("_W = _mem._written")
        lines += access(sem, ops, old=kind == STORE)
    elif kind == ALU:
        lines.append(f"{ops['a']} = {sem.effect.format(**env)}")
    elif kind == BRANCH:
        lines.append(f"_t = {sem.effect.format(**env)}")
    else:
        lines += sem.effect.format(**env).splitlines()
    nxt = sem.next.format(**env) if kind != BRANCH else \
        "{target} if _t else {nxt}".format(**env)
    args = args.format(**ops)
    if "_n" in args:
        # the next pc before any hook runs
        lines.append(f"_n = {nxt}")
        nxt = "_n"
    lines.append(f"ctx.pc = {nxt}")
    if hook:
        lines.append("if m._observers:")
        if kind == LOAD:  # the history first, so every hook sees it
            lines += ["    _h = m.load_history",
                      "    if _h is not None:",
                      "        _l = _h.last; " + HISTORY.format(
                          redundant="_h.redundant", get="_l.get", last="_l",
                          value=ops["a"])]
        lines += ["    for _o in m._observers:",
                  f"        _o.{hook}(ctx, pc, {args})"]
    return lines + [f"return {result}"]


def _generate(prefix: str, sources: Dict[str, List[str]]
              ) -> Dict[str, Callable]:
    """Compile ``{op: lines defining <prefix><op>}`` as one module."""
    namespace = dict(HELPERS)
    source = "\n".join(line for lines in sources.values() for line in lines)
    exec(compile(source + "\n", FILENAME, "exec"), namespace)
    return {op: namespace[prefix + op] for op in sources}


#: ``{opcode: handler}``; a handler executes one instruction on ``ctx``,
#: including its PC update and observer notification, and returns
#: ``(memory address or None, branch taken or None)``
STEP_HANDLERS = _generate("step_", {
    op: [f"def step_{op}(m, ctx, i, pc):"]
    + ["    " + line for line in _body(op)]
    for op in SEMANTICS})


@functools.lru_cache(maxsize=None)
def _value_functions() -> Dict[str, Callable]:
    functions = {}
    for op, sem in SEMANTICS.items():
        if sem.kind == ALU:
            slots = operands(op, str, Src)
            params = ", ".join(slot for slot in slots if slot != "a")
            functions[op] = [f"def value_{op}({params}):",
                             f"    return {sem.effect.format(**slots)}"]
    return _generate("value_", functions)


def evaluate(op: str, values) -> object:
    """The value ALU opcode ``op`` writes, given its ``b``/``c`` operand
    values; raises whatever the instruction would fault with."""
    return _value_functions()[op](*values)
