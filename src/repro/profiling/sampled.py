"""Sampled redundant-load profiling: bounded memory, estimates with CIs.

:class:`SampledRedundantLoadProfiler` measures what
:class:`~repro.profiling.redundancy.RedundantLoadProfiler` measures, under
the same per-location definitions, but tracks value history only for a
seeded ``1/k`` subset of addresses and reports each fraction with a
confidence interval (:mod:`repro.obs.sampling`).  It lives apart from the
exact profiler so that an exact profile loads none of the sampling
estimators.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.machine.events import MachineObserver, Shadow
from repro.obs.sampling import (AddressSampler, SampleEstimate,
                                cluster_coverage_interval,
                                kish_effective_size)

Number = Union[int, float]

#: sentinel distinguishing "never loaded" from any real value
_NEVER = object()

#: per-site cap on the distinct-sampled-address maps that feed the
#: cluster-aware CIs; past this many clusters the interval is tight
#: anyway, and undercounting clusters only widens it (conservative)
_SITE_ADDRESS_CAP = 1024


class SampledLoadSiteStats:
    """Estimated counters for one static load site.

    ``dynamic`` is exact (a counter costs no memory); redundancy is
    *estimated* from the loads whose addresses fell in the tracked
    subset.  ``redundant`` scales the estimate back to a count so
    consumers written against
    :class:`~repro.profiling.redundancy.LoadSiteStats`
    (:func:`~repro.autoconvert.candidates.rank_candidates`, the HTML
    top-sites tables) keep working; ``estimate`` carries the CI —
    a :func:`~repro.obs.sampling.cluster_coverage_interval`, because a
    site's loads cluster by address and a binomial interval over sampled
    loads would be confidently wrong whenever the hash sample misses the
    site's hot addresses.
    """

    __slots__ = ("pc", "rate", "dynamic", "sampled", "sampled_redundant",
                 "_addresses")

    def __init__(self, pc: int, rate: int = 1):
        self.pc = pc
        self.rate = rate
        self.dynamic = 0
        self.sampled = 0
        self.sampled_redundant = 0
        # sampled address -> load count; the cluster sizes behind the
        # Kish effective sample size of this site's estimate
        self._addresses: Dict[int, int] = {}

    def note_sampled(self, address: int, redundant: bool) -> None:
        """Record one exactly-classified load of a sampled address."""
        self.sampled += 1
        if redundant:
            self.sampled_redundant += 1
        if address in self._addresses:
            self._addresses[address] += 1
        elif len(self._addresses) < _SITE_ADDRESS_CAP:
            self._addresses[address] = 1

    @property
    def sampled_addresses(self) -> int:
        return len(self._addresses)

    @property
    def estimate(self) -> SampleEstimate:
        low, high = cluster_coverage_interval(
            self.sampled_redundant, self.sampled,
            kish_effective_size(self._addresses.values()),
            self.dynamic, self.rate)
        return SampleEstimate.from_interval(
            self.sampled_redundant, self.sampled, self.redundant_fraction,
            low, high)

    @property
    def redundant_fraction(self) -> float:
        return (self.sampled_redundant / self.sampled
                if self.sampled else 0.0)

    @property
    def redundant(self) -> int:
        """Estimated redundant-load count, scaled to the exact dynamic count."""
        return round(self.dynamic * self.redundant_fraction)

    @property
    def ci_low(self) -> float:
        return self.estimate.ci_low

    @property
    def ci_high(self) -> float:
        return self.estimate.ci_high

    @property
    def ci_width(self) -> float:
        return self.estimate.ci_width

    def __repr__(self) -> str:
        return (
            f"SampledLoadSiteStats(pc={self.pc}, "
            f"~{self.redundant_fraction:.1%} redundant "
            f"[{self.ci_low:.1%}, {self.ci_high:.1%}] "
            f"from {self.sampled}/{self.dynamic} sampled)"
        )


class SampledStoreSiteStats:
    """Estimated counters for one static store site (silent-store rate).

    Same cluster-coverage estimation as :class:`SampledLoadSiteStats`:
    silent stores concentrate on hot addresses exactly as redundant
    loads do.
    """

    __slots__ = ("pc", "rate", "dynamic", "sampled", "sampled_silent",
                 "triggering", "_addresses")

    def __init__(self, pc: int, triggering: bool, rate: int = 1):
        self.pc = pc
        self.rate = rate
        self.dynamic = 0
        self.sampled = 0
        self.sampled_silent = 0
        self.triggering = triggering
        self._addresses: Dict[int, int] = {}

    def note_sampled(self, address: int, silent: bool) -> None:
        """Record one exactly-classified store to a sampled address."""
        self.sampled += 1
        if silent:
            self.sampled_silent += 1
        if address in self._addresses:
            self._addresses[address] += 1
        elif len(self._addresses) < _SITE_ADDRESS_CAP:
            self._addresses[address] = 1

    @property
    def sampled_addresses(self) -> int:
        return len(self._addresses)

    @property
    def estimate(self) -> SampleEstimate:
        low, high = cluster_coverage_interval(
            self.sampled_silent, self.sampled,
            kish_effective_size(self._addresses.values()),
            self.dynamic, self.rate)
        return SampleEstimate.from_interval(
            self.sampled_silent, self.sampled, self.silent_fraction,
            low, high)

    @property
    def silent_fraction(self) -> float:
        return self.sampled_silent / self.sampled if self.sampled else 0.0

    @property
    def silent(self) -> int:
        """Estimated silent-store count, scaled to the exact dynamic count."""
        return round(self.dynamic * self.silent_fraction)

    @property
    def ci_low(self) -> float:
        return self.estimate.ci_low

    @property
    def ci_high(self) -> float:
        return self.estimate.ci_high

    @property
    def ci_width(self) -> float:
        return self.estimate.ci_width

    def __repr__(self) -> str:
        return (
            f"SampledStoreSiteStats(pc={self.pc}, "
            f"~{self.silent_fraction:.1%} silent "
            f"from {self.sampled}/{self.dynamic} sampled"
            f"{', triggering' if self.triggering else ''})"
        )


class SampledRedundantLoadProfiler(MachineObserver):
    """Bounded-memory redundancy profiler: estimates with CIs.

    Samples *addresses*, not dynamic events: a seeded
    :class:`~repro.obs.sampling.AddressSampler` selects a fixed ``1/k``
    subset of locations, and only those locations get a last-loaded
    value tracked.  Every dynamic load to a sampled location is then
    classified *exactly* (the redundancy definition needs the previous
    load of the same address, which event-sampling cannot see) — the
    design of sampling-based redundancy profilers for production
    software (PAPERS.md, "Redundant Loads: A Software Inefficiency
    Indicator").

    Because redundancy clusters by address (a few hot locations carry
    most of the redundant traffic), the confidence intervals are
    :func:`~repro.obs.sampling.cluster_coverage_interval` values rather
    than naive binomial ones: the effective sample size is the number of
    sampled *addresses*, and dynamic-event mass that the sampled
    addresses provably do not represent (by the Horvitz-Thompson
    scale-up against the exact ``total_loads`` counter) contributes its
    full [0, 1] uncertainty.  The point estimate stays the pooled
    sampled fraction; when the hash sample misses the hot addresses the
    estimate can be far off, but the interval honestly says so instead
    of excluding the truth.

    Memory is bounded twice over: the last-value map only holds sampled
    addresses (footprint/k), and ``max_tracked_addresses`` is a hard
    budget past which new addresses are refused (counted in
    ``tracked_addresses_capped``) — peak memory is fixed regardless of
    run length or footprint.

    Interface-compatible with
    :class:`~repro.profiling.redundancy.RedundantLoadProfiler`:
    ``load_sites()`` / ``store_sites()`` / ``hottest_redundant_loads()``
    / ``summary()`` and the fraction properties all exist, with counts
    scaled from the estimates, so
    :func:`~repro.autoconvert.candidates.rank_candidates` and
    :meth:`~repro.obs.causality.CausalGraph.site_attribution` consume
    either profiler unchanged.

    Like the exact profiler it declares its analysis as a shadow
    transfer, and ``step()`` calls the hooks, which make the same
    update: each site's exact ``dynamic`` count, then, for a sampled
    address only, :meth:`note_load` / :meth:`note_store`.  Sites are
    cells made on first execution as in the exact profiler, and the
    totals are sums over the sites.
    """

    counts_instructions = True
    shadow = Shadow(
        state=("sampled", "note_load", "note_store", "load_site",
               "store_site"),
        cells=("site",),
        load="""\
{s} = {site}
if {s} is None: {s} = {site} = {load_site}({pc})
{s}.dynamic += 1
if {sampled}({address}): {note_load}({s}, {address}, {value})""",
        store="""\
{s} = {site}
if {s} is None: {s} = {site} = {store_site}({pc}, False)
{s}.dynamic += 1
if {sampled}({address}): {note_store}({s}, {address}, {old}, {value})""")

    def __init__(self, sample_rate: int = 64, seed: int = 0,
                 max_tracked_addresses: int = 1 << 20) -> None:
        self.sampler = AddressSampler(sample_rate, seed)
        self.max_tracked_addresses = max_tracked_addresses
        self._loads: Dict[int, SampledLoadSiteStats] = {}
        self._stores: Dict[int, SampledStoreSiteStats] = {}
        # last-loaded value, sampled addresses only (the memory budget)
        self._last_loaded: Dict[int, Number] = {}
        self.total_instructions = 0
        self.sampled_loads = 0
        self.sampled_redundant = 0
        self.sampled_stores = 0
        self.sampled_silent = 0
        # sampled address -> event count: the cluster sizes behind the
        # aggregate estimates' Kish effective sample sizes
        self._load_counts: Dict[int, int] = {}
        self._store_counts: Dict[int, int] = {}
        #: sampled addresses refused because the budget was full
        self.tracked_addresses_capped = 0

    def shadow_state(self) -> dict:
        return {"sampled": self.sampler.sampled, "note_load": self.note_load,
                "note_store": self.note_store, "load_site": self._load_site,
                "store_site": self._store_site}

    def _load_site(self, pc) -> SampledLoadSiteStats:
        site = self._loads.get(pc)
        if site is None:
            site = self._loads[pc] = SampledLoadSiteStats(
                pc, self.sample_rate)
        return site

    def _store_site(self, pc, triggering) -> SampledStoreSiteStats:
        site = self._stores.get(pc)
        if site is None:
            site = self._stores[pc] = SampledStoreSiteStats(
                pc, triggering, self.sample_rate)
        return site

    def note_load(self, site: SampledLoadSiteStats, address: int,
                  value: Number) -> None:
        """Classify one load of a sampled ``address`` at ``site``."""
        last_loaded = self._last_loaded
        last = last_loaded.get(address, _NEVER)
        if last is _NEVER and len(last_loaded) >= self.max_tracked_addresses:
            self.tracked_addresses_capped += 1
            return
        redundant = last == value and last is not _NEVER
        site.note_sampled(address, redundant)
        self.sampled_loads += 1
        self._load_counts[address] = self._load_counts.get(address, 0) + 1
        if redundant:
            self.sampled_redundant += 1
        last_loaded[address] = value

    def note_store(self, site: SampledStoreSiteStats, address: int,
                   old_value: Number, new_value: Number) -> None:
        """Classify one store to a sampled ``address`` at ``site``."""
        store_counts = self._store_counts
        if (address not in store_counts
                and len(store_counts) >= self.max_tracked_addresses):
            self.tracked_addresses_capped += 1
            return
        store_counts[address] = store_counts.get(address, 0) + 1
        silent = old_value == new_value
        site.note_sampled(address, silent)
        self.sampled_stores += 1
        if silent:
            self.sampled_silent += 1

    # -- observer hooks ---------------------------------------------------------

    def on_load(self, ctx, pc, address, value) -> None:
        site = self._load_site(pc)
        site.dynamic += 1
        if self.sampler.sampled(address):
            self.note_load(site, address, value)

    def on_store(self, ctx, pc, address, old_value, new_value,
                 triggering) -> None:
        site = self._store_site(pc, triggering)
        site.dynamic += 1
        if self.sampler.sampled(address):
            self.note_store(site, address, old_value, new_value)

    # -- reporting ------------------------------------------------------------------

    @property
    def sample_rate(self) -> int:
        return self.sampler.rate

    @property
    def total_loads(self) -> int:
        return sum(site.dynamic for site in self._loads.values())

    @property
    def total_stores(self) -> int:
        return sum(site.dynamic for site in self._stores.values())

    @property
    def seed(self) -> int:
        return self.sampler.seed

    @property
    def load_estimate(self) -> SampleEstimate:
        """Aggregate redundant-load estimate over every sampled load,
        with a cluster-coverage CI (clusters = tracked addresses)."""
        pooled = (self.sampled_redundant / self.sampled_loads
                  if self.sampled_loads else 0.0)
        low, high = cluster_coverage_interval(
            self.sampled_redundant, self.sampled_loads,
            kish_effective_size(self._load_counts.values()),
            self.total_loads, self.sample_rate)
        return SampleEstimate.from_interval(
            self.sampled_redundant, self.sampled_loads, pooled, low, high)

    @property
    def store_estimate(self) -> SampleEstimate:
        """Aggregate silent-store estimate over every sampled store,
        with a cluster-coverage CI (clusters = sampled store addresses)."""
        pooled = (self.sampled_silent / self.sampled_stores
                  if self.sampled_stores else 0.0)
        low, high = cluster_coverage_interval(
            self.sampled_silent, self.sampled_stores,
            kish_effective_size(self._store_counts.values()),
            self.total_stores, self.sample_rate)
        return SampleEstimate.from_interval(
            self.sampled_silent, self.sampled_stores, pooled, low, high)

    @property
    def load_coverage(self) -> float:
        """Fraction of dynamic loads the sampled addresses represent
        (Horvitz-Thompson scale-up, clamped to 1)."""
        if not self.total_loads:
            return 0.0
        return min(1.0, self.sample_rate * self.sampled_loads
                   / self.total_loads)

    @property
    def store_coverage(self) -> float:
        """Fraction of dynamic stores the sampled addresses represent."""
        if not self.total_stores:
            return 0.0
        return min(1.0, self.sample_rate * self.sampled_stores
                   / self.total_stores)

    @property
    def redundant_load_fraction(self) -> float:
        return self.load_estimate.fraction

    @property
    def silent_store_fraction(self) -> float:
        return self.store_estimate.fraction

    @property
    def redundant_loads(self) -> int:
        """Estimated redundant-load count, scaled to the exact total."""
        return round(self.total_loads * self.redundant_load_fraction)

    @property
    def silent_stores(self) -> int:
        """Estimated silent-store count, scaled to the exact total."""
        return round(self.total_stores * self.silent_store_fraction)

    @property
    def tracked_addresses(self) -> int:
        return len(self._last_loaded)

    def load_sites(self) -> List[SampledLoadSiteStats]:
        """All load sites, most dynamic executions first."""
        return sorted(self._loads.values(), key=lambda s: -s.dynamic)

    def store_sites(self) -> List[SampledStoreSiteStats]:
        """All store sites, most dynamic executions first."""
        return sorted(self._stores.values(), key=lambda s: -s.dynamic)

    def hottest_redundant_loads(self, count: int = 10
                                ) -> List[SampledLoadSiteStats]:
        """Sites contributing the most (estimated) redundant loads."""
        return sorted(self._loads.values(), key=lambda s: -s.redundant)[:count]

    def provenance(self) -> Dict[str, object]:
        """Sampling provenance for the run manifest (schema v5)."""
        load = self.load_estimate
        store = self.store_estimate
        return {
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "estimator": "cluster-coverage",
            "sampled_loads": self.sampled_loads,
            "sampled_stores": self.sampled_stores,
            "tracked_addresses": self.tracked_addresses,
            "tracked_address_budget": self.max_tracked_addresses,
            "tracked_addresses_capped": self.tracked_addresses_capped,
            "load_coverage": self.load_coverage,
            "store_coverage": self.store_coverage,
            "load_ci_width": load.ci_width,
            "store_ci_width": store.ci_width,
        }

    def summary(self) -> Dict[str, float]:
        """Aggregate estimates and CIs; a superset of the exact summary.

        Same keys as
        :meth:`~repro.profiling.redundancy.RedundantLoadProfiler.summary` (with
        ``redundant_loads`` / ``silent_stores`` as scaled estimates) plus
        the interval bounds and sampling provenance, so stored payloads
        and ``compare`` rows self-describe as sampled.
        """
        load = self.load_estimate
        store = self.store_estimate
        return {
            "total_instructions": self.total_instructions,
            "total_loads": self.total_loads,
            "redundant_loads": self.redundant_loads,
            "redundant_load_fraction": load.fraction,
            "redundant_load_fraction_ci_low": load.ci_low,
            "redundant_load_fraction_ci_high": load.ci_high,
            "redundant_load_fraction_ci_width": load.ci_width,
            "total_stores": self.total_stores,
            "silent_stores": self.silent_stores,
            "silent_store_fraction": store.fraction,
            "silent_store_fraction_ci_low": store.ci_low,
            "silent_store_fraction_ci_high": store.ci_high,
            "silent_store_fraction_ci_width": store.ci_width,
            "sample_rate": self.sample_rate,
            "sample_seed": self.seed,
            "sampled_loads": self.sampled_loads,
            "sampled_stores": self.sampled_stores,
            "tracked_addresses_capped": self.tracked_addresses_capped,
        }

    def __repr__(self) -> str:
        load = self.load_estimate
        return (
            f"SampledRedundantLoadProfiler(1/{self.sample_rate}: "
            f"~{load.fraction:.1%} redundant "
            f"[{load.ci_low:.1%}, {load.ci_high:.1%}] "
            f"from {self.sampled_loads} sampled loads)"
        )
