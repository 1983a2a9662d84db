"""Flamegraph-style cycle attribution: which static site owns the cycles.

A trend verdict like "mcf cycles +12%" names a symptom; acting on it
needs the *site* — which triggering store's support threads grew.  This
module joins the two measurement systems that each hold half the
answer:

* the :class:`~repro.timing.TimingSimulator` result knows the run's
  total cycle count and the main/support instruction split, and
* the :class:`~repro.obs.causality.CausalGraph` knows, per activation,
  the static PC of the triggering store plus measured queue-wait and
  execute latencies (in cycles whenever the trace carried a cycle
  source),

into an additive attribution tree: ``workload -> main | support ->
pc=<site>``.  Support bands are the per-site sums of measured execute
time; the main band is the remainder of the run's total, so widths sum
to the run and a site's width is cycles you would get back by
eliminating it.  Queue wait overlaps main-thread execution (the main
thread keeps retiring while an activation sits queued), so it annotates
a site's hover detail rather than widening any band.  When a
:class:`~repro.profiling.redundancy.RedundantLoadProfiler` is supplied,
its per-site dynamic/silent store counts join the hover detail — the
same join :meth:`CausalGraph.site_attribution` does.

Two export shapes, both dependency-free:

* :func:`folded_stacks` — the classic semicolon-folded text format
  (``mcf;support;pc=0x84 1234``), one line per frame, consumable by any
  external flamegraph tool;
* :func:`flame_svg` — a self-contained SVG (no d3, no script) embedded
  directly in the HTML report, every ``<rect/>`` carrying a ``<title>``
  hover and an ``id`` anchor (``flame-<workload>-pc<site>``) that trend
  verdicts link to.
"""

from __future__ import annotations

import html
import re
from typing import Dict, List, Optional

from repro.obs.causality import (OUTCOME_CANCELED, OUTCOME_COMPLETED,
                                 CausalGraph)

#: pstats frame label of generated code, ``<superblock>:<line>(sb_<pc>)``,
#: ``<timed>:<line>(tb_<pc>)`` or ``<semantics>:<line>(<form>_<opcode>)``,
#: or its module-level frame
_GENERATED_FRAME = re.compile(
    r"<(superblock|timed|semantics)>:\d+\("
    r"(?:sb_|tb_|(?:step|value)_)?([^)]+)\)")
_FOLDED_PREFIX = {"superblock": "sb", "timed": "tb", "semantics": "op"}


def fold_superblock_frames(text: str) -> str:
    """Rewrite exec-compiled frames to ``sb:<entry_pc>`` / ``op:<opcode>``.

    ``cProfile`` labels generated code with its synthetic filename and
    generated names — ``<superblock>:41(sb_18)``,
    ``<semantics>:90(step_add)`` — which reads as opaque exec'd code.
    Fold a superblock to the program-level site name ``sb:<entry_pc>``
    (same vocabulary as ``form_blocks``/``cache_stats``), a timed hot
    block of :mod:`repro.timing.blocks` to ``tb:<entry_pc>``, and a step
    handler of :mod:`repro.machine.semantics` to its opcode,
    ``op:<opcode>``, so the ops do not pool into one row per source
    line.  Module-level exec frames fold to ``sb:<module>`` /
    ``op:<module>``.
    """
    return _GENERATED_FRAME.sub(
        lambda m: f"{_FOLDED_PREFIX[m.group(1)]}:{m.group(2)}", text)


def attribute_cycles(workload: str, graph: CausalGraph, total_cycles: int,
                     profiler=None) -> Dict:
    """Build the additive attribution tree for one traced, timed run.

    ``total_cycles`` is the timing simulator's cycle count for the run;
    ``graph`` is the causal graph of the same run's trace.  Returns a
    JSON-ready dict: ``{"workload", "total", "unit", "frames": [...]}``
    where each frame is ``{"name", "kind", "value", "pc", "detail"}``
    and support-frame values plus the main frame sum to ``total``.
    """
    per_site: Dict[Optional[int], Dict[str, float]] = {}
    unit = "cycles"
    for act in graph.activations.values():
        if act.outcome not in (OUTCOME_COMPLETED, OUTCOME_CANCELED):
            continue
        execute = act.execute_time
        if execute is None:
            continue
        unit = act.latency_unit
        site = per_site.setdefault(act.pc, {
            "execute": 0.0, "queue_wait": 0.0, "runs": 0, "canceled": 0})
        site["execute"] += execute
        site["runs"] += 1
        if act.outcome == OUTCOME_CANCELED:
            site["canceled"] += 1
        wait = act.queue_wait
        if wait is not None:
            site["queue_wait"] += wait

    # join the redundancy profile and trigger outcomes at the same PCs
    outcomes = {row["pc"]: row for row in graph.site_attribution(profiler)}

    support_total = sum(site["execute"] for site in per_site.values())
    # events-unit traces (no cycle source) cannot be subtracted from a
    # cycle total; keep the site split but don't fabricate a main band
    additive = unit == "cycles" and total_cycles > 0
    main = max(0.0, total_cycles - support_total) if additive else 0.0

    frames: List[Dict] = []
    if additive:
        frames.append({
            "name": "main", "kind": "main", "value": main, "pc": None,
            "detail": (f"main-thread residual: total {total_cycles} - "
                       f"support {support_total:g}"),
        })
    for pc, site in sorted(per_site.items(),
                           key=lambda item: -item[1]["execute"]):
        outcome = outcomes.get(pc, {})
        detail_bits = [
            f"{site['runs']:g} activation(s), "
            f"{site['canceled']:g} canceled",
            f"queue wait {site['queue_wait']:g} {unit} (overlapped)",
        ]
        for key in ("fired", "absorbed", "suppressed"):
            if outcome.get(key):
                detail_bits.append(f"{key} {outcome[key]}")
        for key in ("dynamic_stores", "silent_stores"):
            if outcome.get(key) is not None:
                detail_bits.append(f"{key.replace('_', ' ')} "
                                   f"{outcome[key]}")
        frames.append({
            "name": f"pc={pc:#x}" if pc is not None else "pc=?",
            "kind": "support",
            "value": site["execute"],
            "pc": pc,
            "detail": "; ".join(detail_bits),
        })
    return {
        "workload": workload,
        "total": float(total_cycles) if additive
        else support_total or float(total_cycles),
        "unit": unit,
        "support_total": support_total,
        "frames": frames,
    }


def folded_stacks(attribution: Dict) -> str:
    """Semicolon-folded stack lines (``flamegraph.pl`` input format)."""
    workload = attribution["workload"]
    lines = []
    for frame in attribution["frames"]:
        value = int(round(frame["value"]))
        if value <= 0:
            continue
        if frame["kind"] == "main":
            lines.append(f"{workload};main {value}")
        else:
            lines.append(f"{workload};support;{frame['name']} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


# muted blue for the main band, warm ramp for support sites — hottest
# site gets the deepest shade
_MAIN_FILL = "#6b93b5"
_SUPPORT_FILLS = ("#d9534f", "#e07b54", "#e8a25a", "#efc364", "#f4dc82")
_ROW_H = 22
_PAD = 2


def _fill_for(frame: Dict, rank: int) -> str:
    if frame["kind"] == "main":
        return _MAIN_FILL
    return _SUPPORT_FILLS[min(rank, len(_SUPPORT_FILLS) - 1)]


def flame_svg(attribution: Dict, width: int = 900,
              anchor_prefix: str = "flame") -> str:
    """Render one attribution tree as a self-contained SVG string.

    Three rows: the run total, then the main/support split, then one
    cell per support site (widths proportional to cycles).  Every cell
    is a ``<rect/>`` + clipped label with a ``<title>`` hover; support
    cells carry ``id="<anchor_prefix>-<workload>-pc<site>"`` so verdict
    tables can deep-link the responsible site.
    """
    workload = attribution["workload"]
    total = attribution["total"] or 1.0
    unit = attribution["unit"]
    frames = [f for f in attribution["frames"] if f["value"] > 0]
    height = 3 * (_ROW_H + _PAD) + _PAD

    def esc(text: str) -> str:
        return html.escape(str(text), quote=True)

    def cell(x: float, y: int, w: float, fill: str, label: str,
             title: str, cell_id: str = "") -> str:
        w = max(w, 1.0)
        id_attr = f' id="{esc(cell_id)}"' if cell_id else ""
        # ~7.2 px per character at 12px monospace; hide labels that
        # cannot fit their cell
        text = ""
        if w >= 7.2 * len(label) + 6:
            text = (f'<text x="{x + 4:.1f}" y="{y + 15}" '
                    f'font-size="12" font-family="monospace" '
                    f'fill="#1a1a1a">{esc(label)}</text>')
        return (f'<g{id_attr}><rect x="{x:.1f}" y="{y}" '
                f'width="{w:.1f}" height="{_ROW_H}" fill="{fill}" '
                f'stroke="#ffffff" stroke-width="1" rx="2" />'
                f'<title>{esc(title)}</title>{text}</g>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img" aria-label="cycle attribution for {esc(workload)}">',
    ]
    # row 0: the whole run
    parts.append(cell(
        0, _PAD, width, "#b8c9d9",
        f"{workload}: {total:g} {unit}",
        f"{workload}: {total:g} {unit} total"))
    # row 1: main vs support bands
    y1 = _PAD + _ROW_H + _PAD
    support_total = attribution.get("support_total", 0.0)
    x = 0.0
    main_value = total - support_total
    if main_value > 0:
        w = width * main_value / total
        parts.append(cell(x, y1, w, _MAIN_FILL,
                          f"main {main_value:g}",
                          f"main thread: {main_value:g} {unit}"))
        x += w
    if support_total > 0:
        parts.append(cell(x, y1, width * support_total / total, "#c9724f",
                          f"support {support_total:g}",
                          f"support threads: {support_total:g} {unit}"))
    # row 2: per-site support cells, hottest first, after the main gap
    y2 = y1 + _ROW_H + _PAD
    x = width * max(main_value, 0.0) / total
    rank = 0
    for frame in frames:
        if frame["kind"] != "support":
            continue
        w = width * frame["value"] / total
        site = frame["pc"]
        cell_id = (f"{anchor_prefix}-{workload}-pc{site:#x}"
                   if site is not None else f"{anchor_prefix}-{workload}-pcx")
        parts.append(cell(
            x, y2, w, _fill_for(frame, rank),
            f"{frame['name']} {frame['value']:g}",
            f"{frame['name']}: {frame['value']:g} {unit}; "
            f"{frame['detail']}", cell_id))
        x += w
        rank += 1
    parts.append("</svg>")
    return "".join(parts)


def hottest_site(attribution: Dict) -> Optional[Dict]:
    """The support frame owning the most cycles, or None."""
    support = [f for f in attribution["frames"] if f["kind"] == "support"]
    return max(support, key=lambda f: f["value"]) if support else None
