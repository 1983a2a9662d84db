"""Run plans: the deduplicated matrix of simulations the experiments need.

E1–E9 overlap heavily — E3, E4, E6, and E7 all consume the same
baseline/DTT sweep of the suite, E1 and E2 share every profile, and the
ablations re-time a handful of workloads under alternate configurations.
A :class:`RunPlan` states those needs *once*: each experiment contributes
the :class:`RunSpec`\\ s it requires, duplicates collapse, and the
scheduler (:mod:`repro.exec.pool`) executes every distinct run exactly
one time regardless of how many experiments asked for it.

A :class:`RunSpec` is also the *identity* of a run everywhere else in the
execution subsystem.  The spec itself keys every
:class:`~repro.harness.runner.SuiteRunner` memo, and it has two derived
forms:

* ``canonical()`` — the stable, documented string form
  (see :func:`canonical_run_name`) exposed by ``cache_stats()["keys"]``
  and embedded in manifests;
* ``identity()`` — the JSON-ready dict the on-disk result store
  (:mod:`repro.exec.store`) hashes into its content address.

Canonical string form (stable; serialization-safe)::

    <workload>:<build>:<config>:seed=<seed>:scale=<scale>

where ``<build>`` is ``baseline`` / ``dtt`` / ``dtt-watch`` / ``profile``,
suffixed with ``+cfg=<12-hex>`` when a non-default
:class:`~repro.core.config.DttConfig` applies (the hex is a digest of the
full field/value fingerprint, so distinct configurations never alias);
``<config>`` is the machine-configuration name (``-`` for profiles,
which run functionally); and seed/scale print as ``default`` when the
runner's per-workload defaults apply.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.config import DttConfig
from repro.errors import ExecError, UnknownWorkloadError

#: field/value pairs identifying one DttConfig; () means "engine default"
ConfigFingerprint = Tuple[Tuple[str, object], ...]

#: scalar types a DttConfig field may hold and still be fingerprintable
_SCALAR_TYPES = (bool, int, float, str, type(None))


def config_fingerprint(config: Optional[DttConfig]) -> ConfigFingerprint:
    """Every field of ``config`` as sorted-stable (name, value) pairs.

    Derived automatically from ``DttConfig.__slots__`` so a newly added
    configuration knob can never be silently omitted from memoization
    keys or store addresses (the failure mode of a hand-maintained field
    list).  Fails loudly instead of degrading: a config class without
    ``__slots__`` or with a non-scalar field raises :class:`ExecError`.
    """
    if config is None:
        return ()
    slots = getattr(type(config), "__slots__", None)
    if not slots:
        raise ExecError(
            f"{type(config).__name__} defines no __slots__; cannot derive "
            "a complete configuration fingerprint"
        )
    fields = []
    for name in slots:
        value = getattr(config, name)  # AttributeError = incomplete config
        if not isinstance(value, _SCALAR_TYPES):
            raise ExecError(
                f"DttConfig field {name!r} holds non-scalar {value!r}; "
                "extend config_fingerprint before caching such configs"
            )
        fields.append((name, value))
    return tuple(fields)


def fingerprint_token(fingerprint: ConfigFingerprint) -> str:
    """Short stable digest of a config fingerprint ('' for default)."""
    if not fingerprint:
        return ""
    canonical = json.dumps([[n, v] for n, v in fingerprint],
                           sort_keys=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _fmt_default(value) -> str:
    return "default" if value is None else str(value)


def canonical_run_name(
    workload: str,
    build: str,
    config_name: Optional[str],
    fingerprint: ConfigFingerprint,
    seed: Optional[int],
    scale: Optional[int],
) -> str:
    """The documented ``workload:build:config:seed:scale`` string form."""
    token = fingerprint_token(fingerprint)
    if token:
        build = f"{build}+cfg={token}"
    return (f"{workload}:{build}:{config_name or '-'}"
            f":seed={_fmt_default(seed)}:scale={_fmt_default(scale)}")


class RunSpec:
    """One deduplicated unit of simulation work.

    ``kind`` is ``'timed'`` (a :class:`TimingSimulator` run of one build
    under one machine configuration) or ``'profile'`` (a functional run
    under both redundancy analyzers).  Instances are immutable value
    objects: hashable, comparable, and losslessly round-trippable through
    ``as_dict``/``from_dict`` (which is how they cross process
    boundaries to pool workers).
    """

    __slots__ = ("kind", "workload", "build", "config_name", "dtt_fields",
                 "seed", "scale")

    def __init__(self, kind: str, workload: str, build: str,
                 config_name: Optional[str], dtt_fields: ConfigFingerprint,
                 seed: Optional[int], scale: Optional[int]):
        if kind not in ("timed", "profile"):
            raise ExecError(f"unknown RunSpec kind {kind!r}")
        self.kind = kind
        self.workload = workload
        self.build = build
        self.config_name = config_name
        self.dtt_fields = tuple(tuple(pair) for pair in dtt_fields)
        self.seed = seed
        self.scale = scale

    # -- constructors ---------------------------------------------------------

    @classmethod
    def for_timed(cls, workload: str, build: str = "baseline",
                  config_name: str = "smt2",
                  dtt_config: Optional[DttConfig] = None,
                  seed: Optional[int] = None,
                  scale: Optional[int] = None) -> "RunSpec":
        return cls("timed", workload, build, config_name,
                   config_fingerprint(dtt_config), seed, scale)

    @classmethod
    def for_profile(cls, workload: str, seed: Optional[int] = None,
                    scale: Optional[int] = None) -> "RunSpec":
        return cls("profile", workload, "profile", None, (), seed, scale)

    # -- identities -----------------------------------------------------------

    def canonical(self) -> str:
        """The documented ``workload:build:config:seed:scale`` string."""
        return canonical_run_name(self.workload, self.build,
                                  self.config_name, self.dtt_fields,
                                  self.seed, self.scale)

    def identity(self) -> Dict:
        """JSON-ready identity dict (hashed by the result store)."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "build": self.build,
            "config": self.config_name,
            "dtt_config": [[name, value] for name, value in self.dtt_fields],
            "seed": self.seed,
            "scale": self.scale,
        }

    def phase_name(self) -> str:
        """The runner phase this run's wall-clock accrues under."""
        if self.kind == "profile":
            return f"{self.workload}:profile"
        return f"{self.workload}:{self.build}:{self.config_name}"

    def dtt_config(self) -> Optional[DttConfig]:
        """Reconstruct the DttConfig this spec fingerprints (or None)."""
        if not self.dtt_fields:
            return None
        return DttConfig(**dict(self.dtt_fields))

    def baseline_spec(self) -> Optional["RunSpec"]:
        """The baseline run this (DTT) run is checked against."""
        if self.kind != "timed" or self.build == "baseline":
            return None
        return RunSpec.for_timed(self.workload, "baseline",
                                 self.config_name, None,
                                 self.seed, self.scale)

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> Dict:
        """Picklable/JSON-ready form (see ``from_dict``)."""
        return self.identity()

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunSpec":
        try:
            return cls(
                payload["kind"], payload["workload"], payload["build"],
                payload["config"],
                tuple((name, value) for name, value in payload["dtt_config"]),
                payload["seed"], payload["scale"],
            )
        except (KeyError, TypeError) as error:
            raise ExecError(f"malformed RunSpec payload: {error}") from error

    # -- value semantics ------------------------------------------------------

    def _tuple(self) -> Tuple:
        return (self.kind, self.workload, self.build, self.config_name,
                self.dtt_fields, self.seed, self.scale)

    def __eq__(self, other) -> bool:
        return isinstance(other, RunSpec) and self._tuple() == other._tuple()

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return f"RunSpec({self.canonical()})"


def resolve_workload(name: str):
    """Workload instance by name: the suite plus the harness extras.

    The extras (``overlap``, ``linefalse``, ``bursty-equake``) are the
    experiment-only workloads E8/E9 time through the runner; they are
    resolvable here so pool workers and stored runs can name any
    workload the harness can.
    """
    from repro.workloads.suite import SUITE

    if name in SUITE:
        return SUITE[name]
    extras = _extra_workloads()
    if name in extras:
        return extras[name]()
    raise UnknownWorkloadError(
        f"unknown workload {name!r}; known: "
        f"{', '.join(list(SUITE) + sorted(extras))}"
    )


def _extra_workloads() -> Dict[str, type]:
    from repro.workloads.ablation import (BurstyEquakeWorkload,
                                          LineFalseWorkload)
    from repro.workloads.overlap import OverlapWorkload

    return {
        OverlapWorkload.name: OverlapWorkload,
        LineFalseWorkload.name: LineFalseWorkload,
        BurstyEquakeWorkload.name: BurstyEquakeWorkload,
    }


class RunPlan:
    """An ordered, deduplicated list of :class:`RunSpec`\\ s with
    provenance (which experiments need each run)."""

    def __init__(self, experiment_ids: Sequence[str],
                 seed: Optional[int] = None, scale: Optional[int] = None):
        self.experiment_ids = tuple(experiment_ids)
        self.seed = seed
        self.scale = scale
        self._specs: List[RunSpec] = []
        self._needed_by: Dict[RunSpec, Set[str]] = {}

    def add(self, spec: RunSpec, experiment_id: str) -> None:
        """Record that ``experiment_id`` needs ``spec`` (dedup on spec)."""
        if spec not in self._needed_by:
            self._needed_by[spec] = set()
            self._specs.append(spec)
        self._needed_by[spec].add(experiment_id)
        baseline = spec.baseline_spec()
        if baseline is not None:
            # a DTT run is always validated against its baseline, so the
            # baseline is implicitly part of the need
            self.add(baseline, experiment_id)

    def needed_by(self, spec: RunSpec) -> Set[str]:
        """Experiment ids that requested ``spec``."""
        return set(self._needed_by.get(spec, ()))

    def canonical_names(self) -> List[str]:
        """Canonical strings of every planned run, in plan order."""
        return [spec.canonical() for spec in self._specs]

    def as_dict(self) -> Dict:
        """JSON-ready description (for ``--json`` surfaces and tests)."""
        return {
            "experiments": list(self.experiment_ids),
            "seed": self.seed,
            "scale": self.scale,
            "runs": [
                {"spec": spec.as_dict(),
                 "canonical": spec.canonical(),
                 "needed_by": sorted(self._needed_by[spec])}
                for spec in self._specs
            ],
        }

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return (f"RunPlan({len(self._specs)} runs for "
                f"{'+'.join(self.experiment_ids)})")


def build_plan(experiment_ids: Sequence[str], seed: Optional[int] = None,
               scale: Optional[int] = None) -> RunPlan:
    """The deduplicated run matrix for ``experiment_ids`` (or ``'all'``).

    Mirrors exactly the runner-mediated runs each experiment performs,
    so executing the plan then running the experiments serves every
    ``SuiteRunner`` request from the memo (zero re-simulation).
    """
    from repro.core.config import DttConfig
    from repro.harness.experiments import EXPERIMENTS, SENSITIVITY_SUBSET
    from repro.workloads.suite import SUITE

    wanted = []
    for experiment_id in experiment_ids:
        key = experiment_id.upper()
        if key == "ALL":
            wanted = list(EXPERIMENTS)
            break
        if key not in EXPERIMENTS:
            raise ExecError(
                f"cannot plan unknown experiment {experiment_id!r}; "
                f"available: {sorted(EXPERIMENTS)}"
            )
        if key not in wanted:
            wanted.append(key)

    plan = RunPlan(wanted, seed=seed, scale=scale)
    suite = list(SUITE)

    def timed(eid, workload, build="baseline", config="smt2", dtt=None):
        plan.add(RunSpec.for_timed(workload, build, config, dtt, seed, scale),
                 eid)

    for eid in wanted:
        if eid in ("E1", "E2"):
            for name in suite:
                plan.add(RunSpec.for_profile(name, seed, scale), eid)
        elif eid in ("E3", "E4", "E6", "E7"):
            for name in suite:
                timed(eid, name, "dtt")
        elif eid == "E5":
            for name in SENSITIVITY_SUBSET:
                for config in ("smt2", "cmp2", "serial"):
                    timed(eid, name, "dtt", config)
        elif eid == "E8":
            timed(eid, "mcf", "dtt")
            timed(eid, "mcf", "dtt",
                  dtt=DttConfig(same_value_filter=False))
            for granularity in (1, 16):
                timed(eid, "linefalse", "dtt",
                      dtt=DttConfig(granularity=granularity))
            for capacity in (1, 2, 16):
                timed(eid, "bursty-equake", "dtt",
                      dtt=DttConfig(queue_capacity=capacity))
        elif eid == "E9":
            for config in ("smt2", "cmp2", "serial"):
                timed(eid, "overlap", "dtt", config)
    return plan
