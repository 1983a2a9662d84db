"""Redundant-load and silent-store profiling.

Definitions (following the paper's §2):

* A dynamic **load is redundant** when it fetches the *same value* that
  the most recent previous load from the *same address* returned — i.e.
  the location's data was already brought into the core and has not
  changed since.  The first load of an address is never redundant.  (This
  per-location definition is the one under which the paper's "78 % of all
  loads fetch redundant data" is meaningful: a loop re-walking an
  unchanged array is fetching entirely redundant data even though each
  static load visits many addresses.)
* A dynamic **store is silent** when the value it writes equals the value
  already in memory.  Silent stores are exactly what the DTT same-value
  filter suppresses.

Redundancy is attributed to static sites as well, so the report can show
which loops carry the redundancy; site attribution uses the same
per-location definition.  The bounded-memory sampled variant is
:mod:`repro.profiling.sampled`.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.machine.events import MachineObserver, Shadow

Number = Union[int, float]

#: sentinel distinguishing "never loaded" from any real value
_NEVER = object()


class LoadSiteStats:
    """Counters for one static load site."""

    __slots__ = ("pc", "dynamic", "redundant")

    def __init__(self, pc: int):
        self.pc = pc
        self.dynamic = 0
        self.redundant = 0

    @property
    def redundant_fraction(self) -> float:
        return self.redundant / self.dynamic if self.dynamic else 0.0

    def __repr__(self) -> str:
        return (
            f"LoadSiteStats(pc={self.pc}, {self.redundant}/{self.dynamic} "
            f"redundant)"
        )


class StoreSiteStats:
    """Counters for one static store site."""

    __slots__ = ("pc", "dynamic", "silent", "triggering")

    def __init__(self, pc: int, triggering: bool):
        self.pc = pc
        self.dynamic = 0
        self.silent = 0
        self.triggering = triggering

    @property
    def silent_fraction(self) -> float:
        return self.silent / self.dynamic if self.dynamic else 0.0

    def __repr__(self) -> str:
        return (
            f"StoreSiteStats(pc={self.pc}, {self.silent}/{self.dynamic} "
            f"silent{', triggering' if self.triggering else ''})"
        )


class RedundantLoadProfiler(MachineObserver):
    """Observer computing redundant-load / silent-store statistics.

    Its hooks and its declared shadow transfer make the same update:
    ``Machine.run`` generates the transfer into its compiled blocks, and
    the step handlers call the hooks (see :mod:`repro.machine.events`).
    Each compiled block entry holds, per position, its site's stats in a
    cell from the site's first execution there on, and a site is made on
    the first execution of its PC on any path, so sites enter the site
    maps in first-execution order on every path.  The totals are sums
    over the sites, and the machine keeps ``total_instructions``.
    """

    counts_instructions = True
    shadow = Shadow(
        state=("last", "last_get", "load_site", "store_site"),
        cells=("site",),
        # a word never loaded reads None, which equals no value
        load="""\
{s} = {site}
if {s} is None: {s} = {site} = {load_site}({pc})
{s}.dynamic += 1
if {last_get}({address}) == {value}: {s}.redundant += 1
{last}[{address}] = {value}""",
        store="""\
{s} = {site}
if {s} is None: {s} = {site} = {store_site}({pc}, False)
{s}.dynamic += 1
if {old} == {value}: {s}.silent += 1""")

    def __init__(self) -> None:
        self._loads: Dict[int, LoadSiteStats] = {}
        self._stores: Dict[int, StoreSiteStats] = {}
        # per-location last-loaded value (the redundancy definition)
        self._last_loaded: Dict[int, Number] = {}
        self.total_instructions = 0

    def shadow_state(self) -> dict:
        return {"last": self._last_loaded, "last_get": self._last_loaded.get,
                "load_site": self._load_site, "store_site": self._store_site}

    def _load_site(self, pc) -> LoadSiteStats:
        site = self._loads.get(pc)
        if site is None:
            site = self._loads[pc] = LoadSiteStats(pc)
        return site

    def _store_site(self, pc, triggering) -> StoreSiteStats:
        site = self._stores.get(pc)
        if site is None:
            site = self._stores[pc] = StoreSiteStats(pc, triggering)
        return site

    # -- observer hooks ---------------------------------------------------------

    def on_load(self, ctx, pc, address, value) -> None:
        site = self._load_site(pc)
        site.dynamic += 1
        last = self._last_loaded.get(address, _NEVER)
        if last == value and last is not _NEVER:
            site.redundant += 1
        self._last_loaded[address] = value

    def on_store(self, ctx, pc, address, old_value, new_value, triggering) -> None:
        site = self._store_site(pc, triggering)
        site.dynamic += 1
        if old_value == new_value:
            site.silent += 1

    # -- reporting ------------------------------------------------------------------

    @property
    def total_loads(self) -> int:
        return sum(site.dynamic for site in self._loads.values())

    @property
    def redundant_loads(self) -> int:
        return sum(site.redundant for site in self._loads.values())

    @property
    def total_stores(self) -> int:
        return sum(site.dynamic for site in self._stores.values())

    @property
    def silent_stores(self) -> int:
        return sum(site.silent for site in self._stores.values())

    @property
    def redundant_load_fraction(self) -> float:
        return self.redundant_loads / self.total_loads if self.total_loads else 0.0

    @property
    def silent_store_fraction(self) -> float:
        return self.silent_stores / self.total_stores if self.total_stores else 0.0

    def load_sites(self) -> List[LoadSiteStats]:
        """All load sites, most dynamic executions first."""
        return sorted(self._loads.values(), key=lambda s: -s.dynamic)

    def store_sites(self) -> List[StoreSiteStats]:
        """All store sites, most dynamic executions first."""
        return sorted(self._stores.values(), key=lambda s: -s.dynamic)

    def hottest_redundant_loads(self, count: int = 10) -> List[LoadSiteStats]:
        """Sites contributing the most redundant dynamic loads."""
        return sorted(self._loads.values(), key=lambda s: -s.redundant)[:count]

    def summary(self) -> Dict[str, float]:
        """Aggregate counters and fractions for reports."""
        return {
            "total_instructions": self.total_instructions,
            "total_loads": self.total_loads,
            "redundant_loads": self.redundant_loads,
            "redundant_load_fraction": self.redundant_load_fraction,
            "total_stores": self.total_stores,
            "silent_stores": self.silent_stores,
            "silent_store_fraction": self.silent_store_fraction,
        }

    def __repr__(self) -> str:
        return (
            f"RedundantLoadProfiler({self.redundant_loads}/{self.total_loads} "
            f"loads redundant = {self.redundant_load_fraction:.1%})"
        )
