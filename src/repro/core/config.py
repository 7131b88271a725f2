"""Configuration shared by all prefix-tree mechanisms (TAP, TAPS, baselines)."""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.ldp.base import FrequencyOracle, SimulationMode
from repro.ldp.registry import make_oracle
from repro.utils.validation import check_in_range, check_known_keys, check_positive


#: Valid values of :attr:`MechanismConfig.execution_mode`.
EXECUTION_MODES: tuple[str, ...] = ("memory", "service", "network")

#: The one protocol-wide default bound on reports per wire batch.  Every
#: consumer — :attr:`MechanismConfig.effective_report_batch_size`, the
#: service ``ClientPool``/``ServiceRoundRunner``, the serve harness, and
#: the sliding-window tracker — imports this constant directly; there is
#: deliberately no service-side alias.
DEFAULT_REPORT_BATCH_SIZE = 65_536


class ExtensionStrategy(str, enum.Enum):
    """How many prefixes to extend at each trie level."""

    #: The paper's adaptive rule: ``t = k* + η`` (Equations 2–3).
    ADAPTIVE = "adaptive"
    #: A fixed extension number ``t`` (the prior-work default ``t = k``).
    FIXED = "fixed"


@dataclass(frozen=True)
class MechanismConfig:
    """All protocol parameters of the TAP/TAPS family.

    Attributes
    ----------
    k:
        Number of heavy hitters queried (the ``k`` of top-k).
    epsilon:
        Per-user LDP privacy budget ε.
    n_bits:
        Maximum binary length ``m`` of the item encoding (paper: 48).
    granularity:
        Number of trie levels / user groups ``g`` (paper: 24 or 12).
    shared_level:
        Level ``g_s`` at which the shared shallow trie is aggregated.
        ``None`` applies the paper's heuristic ``g_s = max(1, floor(0.25 g))``.
    oracle:
        Name of the frequency oracle (``"krr"``, ``"oue"``, ``"olh"``).
    extension:
        Adaptive (paper) or fixed extension strategy.
    fixed_extension:
        The fixed ``t`` used when ``extension == FIXED`` (defaults to ``k``).
    dividing_ratio:
        β — fraction of a level's users reserved for *each* of the two
        consensus-validation sets in TAPS (paper: 0.1).
    phase1_user_fraction:
        Fraction of a party's users allocated to *each* phase-I level (the
        shared-trie warm start); the paper assigns 10%, so phase I consumes
        ``g_s * 10%`` of the population.  ``None`` splits users evenly
        across all ``g`` levels instead.
    use_shared_trie:
        Disable to reproduce the Table 6 ablation (phase I still estimates
        levels 1..g_s locally, but no cross-party aggregation happens).
    simulation_mode:
        ``"aggregate"`` (fast, samples support counts exactly) or
        ``"per_user"`` (materialises every report).
    pair_bits:
        Wire cost of one (prefix/item, count) pair, the paper's ``b``.
    min_validation_users:
        Smallest β-fraction validation set TAPS will trust.  The paper's
        consensus test presumes the validation estimate is informative
        (its populations make β·|U_h| tens of thousands of users); at
        laptop scale a handful of validation users would produce pure-noise
        pruning decisions, so levels whose validation sets fall below this
        floor simply skip pruning.
    execution_mode:
        ``"memory"`` (default) runs every frequency-oracle round as a
        one-shot in-memory computation; ``"service"`` routes each round
        through the online aggregation service
        (:mod:`repro.service`): clients emit privatized report batches of
        bounded size, the server accumulates them into mergeable shards,
        and the transcript records exact wire bytes instead of analytic
        estimates.  For a fixed seed both modes produce bit-identical
        results (given the same ``report_batch_size``).  ``"network"``
        goes one step further and serves every round over a live TCP
        gateway (:mod:`repro.net`) named by :attr:`gateway` —
        bit-identical to ``"service"`` in turn, because the frames wrap
        the same canonical bytes.  Both streaming
        modes require ``simulation_mode="per_user"`` — there are no
        individual reports to stream in aggregate mode.
    gateway:
        ``HOST:PORT`` of the aggregation gateway serving the rounds;
        required by (and only meaningful for)
        ``execution_mode="network"``.  A **comma-separated list** of
        addresses names a shard cluster (:mod:`repro.cluster`): rounds
        fan out over every shard through consistent-hash routing and
        merge at the round-close barrier, still bit-identical to the
        single-gateway run.
    report_batch_size:
        Upper bound on the number of reports perturbed/ingested at a time.
        ``None`` perturbs an in-memory round as one batch and lets
        service runs use :data:`DEFAULT_REPORT_BATCH_SIZE`.  Purely a
        memory knob (the report buffer becomes ``O(batch × domain)``); it
        changes how the RNG stream is split across draws, so runs with
        different batch sizes are identically distributed but not
        bit-identical.
    defense:
        Robust shard-merge policy name (``"trimmed"`` or ``"norm_bound"``,
        see :mod:`repro.faults.defense`) applied by the aggregation
        service when accumulating report batches; ``None`` (default)
        keeps the exact linear merge.  Opt-in precisely because a robust
        merge departs from the plain-sum bit-identity contract — use it
        when scoring adversarial scenarios
        (:mod:`repro.scenarios.adversaries`).
    defense_fraction:
        Assumed corrupt fraction of wire batches for the defense (the
        trim share per tail / the clipping headroom).

    Examples
    --------
    >>> config = MechanismConfig(k=10, epsilon=4.0, n_bits=16, granularity=8)
    >>> config.step_size            # extension length per level, floor(m/g)
    2
    >>> config.effective_shared_level  # the paper's floor(0.25 g) heuristic
    2
    >>> config.with_updates(oracle="oue").oracle
    'oue'
    """

    k: int = 10
    epsilon: float = 4.0
    n_bits: int = 16
    granularity: int = 8
    shared_level: Optional[int] = None
    oracle: str = "krr"
    extension: ExtensionStrategy = ExtensionStrategy.ADAPTIVE
    fixed_extension: Optional[int] = None
    dividing_ratio: float = 0.1
    phase1_user_fraction: Optional[float] = 0.1
    use_shared_trie: bool = True
    simulation_mode: SimulationMode = "aggregate"
    pair_bits: int = 64
    min_validation_users: int = 30
    execution_mode: str = "memory"
    report_batch_size: Optional[int] = None
    defense: Optional[str] = None
    defense_fraction: float = 0.25
    gateway: Optional[str] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("k", self.k)
        check_positive("epsilon", self.epsilon)
        check_positive("n_bits", self.n_bits)
        check_positive("granularity", self.granularity)
        if self.granularity > self.n_bits:
            raise ValueError(
                f"granularity ({self.granularity}) cannot exceed n_bits ({self.n_bits})"
            )
        if self.shared_level is not None:
            check_in_range("shared_level", self.shared_level, 1, self.granularity - 1)
        check_in_range("dividing_ratio", self.dividing_ratio, 0.0, 0.5)
        if self.phase1_user_fraction is not None:
            check_in_range(
                "phase1_user_fraction", self.phase1_user_fraction, 0.0, 1.0, inclusive=False
            )
        if self.fixed_extension is not None:
            check_positive("fixed_extension", self.fixed_extension)
        check_positive("pair_bits", self.pair_bits)
        check_positive("min_validation_users", self.min_validation_users, strict=False)
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"available: {sorted(EXECUTION_MODES)}"
            )
        if self.report_batch_size is not None:
            check_positive("report_batch_size", self.report_batch_size)
        if self.defense is not None:
            # Building the policy runs the full defense validation (kind
            # and fraction) at configuration time, not mid-round.
            self.defense_policy()
        if (
            self.execution_mode in ("service", "network")
            and self.simulation_mode != "per_user"
        ):
            raise ValueError(
                f"{self.execution_mode} execution streams individual privatized "
                'reports; set simulation_mode="per_user" (aggregate sampling '
                "has no reports to put on the wire)"
            )
        if self.execution_mode == "network" and not self.gateway:
            raise ValueError(
                'execution_mode="network" needs a gateway="HOST:PORT" address '
                "to serve the rounds"
            )
        if self.gateway is not None and self.execution_mode != "network":
            raise ValueError(
                f'a gateway address is only meaningful for execution_mode='
                f'"network" (got execution_mode={self.execution_mode!r}); '
                "the in-process modes never touch a socket"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def effective_shared_level(self) -> int:
        """``g_s``: explicit value or the paper's ``floor(0.25 g)`` heuristic (>= 1)."""
        if self.shared_level is not None:
            return self.shared_level
        return max(1, math.floor(0.25 * self.granularity))

    @property
    def step_size(self) -> int:
        """Extension length per level, ``floor(m / g)`` as reported in Table 3."""
        return max(1, self.n_bits // self.granularity)

    @property
    def effective_fixed_extension(self) -> int:
        """The fixed ``t`` used by the FIXED strategy (defaults to ``k``)."""
        return self.fixed_extension if self.fixed_extension is not None else self.k

    @property
    def effective_report_batch_size(self) -> Optional[int]:
        """Report batch bound: the explicit value, or the service default.

        ``None`` (in memory mode without an explicit bound) perturbs a
        round's reports as one batch.
        """
        if self.report_batch_size is not None:
            return self.report_batch_size
        if self.execution_mode in ("service", "network"):
            return DEFAULT_REPORT_BATCH_SIZE
        return None

    def make_oracle(self) -> FrequencyOracle:
        """Instantiate the configured frequency oracle."""
        return make_oracle(self.oracle, self.epsilon)

    def defense_policy(self):
        """The configured robust-merge policy, or ``None`` when undefended.

        Imported lazily: the faults package is only a dependency of
        defended configurations.
        """
        if self.defense is None:
            return None
        from repro.faults.defense import RobustMergePolicy

        return RobustMergePolicy(kind=self.defense, fraction=self.defense_fraction)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def with_updates(self, **changes) -> "MechanismConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Spec round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-safe mapping; :meth:`from_dict` round-trips it exactly.

        Enum fields are stored by value, so the output is what a YAML/JSON
        sweep spec would contain for the same configuration.

        >>> config = MechanismConfig(k=5, epsilon=2.0, oracle="oue")
        >>> config.to_dict()["extension"]
        'adaptive'
        >>> MechanismConfig.from_dict(config.to_dict()) == config
        True
        """
        out = {}
        for f in dataclasses.fields(self):
            # Undefended configs omit the defense knobs entirely, keeping
            # their spec documents (and store fingerprints) identical to
            # those written before the defense existed.
            if f.name in ("defense", "defense_fraction") and self.defense is None:
                continue
            value = getattr(self, f.name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], *, source: str = "<config>"
    ) -> "MechanismConfig":
        """Build a configuration from a parsed spec mapping.

        Unknown keys raise ``ValueError`` naming the valid alternatives;
        the ``extension`` field accepts the enum's string value.
        """
        field_names = {f.name for f in dataclasses.fields(cls)}
        check_known_keys(data, field_names, where="config", source=source)
        kwargs = dict(data)
        if "extension" in kwargs and not isinstance(kwargs["extension"], ExtensionStrategy):
            kwargs["extension"] = ExtensionStrategy(kwargs["extension"])
        return cls(**kwargs)

    def for_dataset(self, n_bits: int) -> "MechanismConfig":
        """Adapt the binary width to a dataset, shrinking granularity if needed."""
        granularity = min(self.granularity, n_bits)
        shared = self.shared_level
        if shared is not None and shared >= granularity:
            shared = max(1, granularity - 1)
        return replace(self, n_bits=n_bits, granularity=granularity, shared_level=shared)
