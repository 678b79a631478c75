"""Per-function purity facts and their transitive fixpoint propagation.

Direct facts come from the resolved external calls and global-write
sites recorded in the :class:`~repro.analysis.project.ProjectModel`:

* ``unseeded-rng``   — stdlib ``random`` or legacy ``numpy.random``;
* ``wall-clock``     — ``time.time``/``perf_counter``/``monotonic``/...,
  ``datetime.now`` and friends;
* ``mutates-global`` — assignment through / mutating-method call on a
  module-level binding, or a ``global`` declaration;
* ``process``        — ``subprocess``/``multiprocessing``/``signal``/
  ``os.fork``-family primitives;
* ``filesystem``     — ``open`` and the destructive ``os``/``shutil``/
  ``tempfile`` entry points;
* ``reads-tracer``   — reading the ambient obs tracer
  (``current_tracer``).

The fixpoint then unions every function's facts with those of its
(approximate) callees until nothing changes, keeping one deterministic
**witness chain** per (function, fact): the lexicographically smallest
call path to a function with the direct fact.  Rules R009–R011 consume
the result; determinism of the chains is what makes analyzer output
byte-identical across runs and file orderings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.project import CallSite, ProjectModel

#: numpy.random attributes that construct explicit, seedable state (R002
#: imports this set too).
SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

FACT_RNG = "unseeded-rng"
FACT_CLOCK = "wall-clock"
FACT_GLOBAL = "mutates-global"
FACT_PROCESS = "process"
FACT_FS = "filesystem"
FACT_TRACER = "reads-tracer"

ALL_FACTS = (FACT_RNG, FACT_CLOCK, FACT_GLOBAL, FACT_PROCESS, FACT_FS, FACT_TRACER)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_PROCESS_EXACT = frozenset(
    {"os.fork", "os.forkpty", "os.kill", "os._exit", "os.system", "os.spawnv"}
)
_PROCESS_PREFIXES = ("subprocess.", "multiprocessing.", "signal.")

_FS_EXACT = frozenset(
    {
        "open",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.replace",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.truncate",
    }
)
_FS_PREFIXES = ("shutil.", "tempfile.")


def classify_external(name: str) -> str | None:
    """The purity fact triggered by calling external ``name``, if any."""
    if name == "random" or name.startswith("random."):
        return FACT_RNG
    if name.startswith("numpy.random."):
        attr = name.split(".")[-1]
        if attr not in SEEDABLE_CONSTRUCTORS:
            return FACT_RNG
    if name in _WALL_CLOCK:
        return FACT_CLOCK
    if name in _PROCESS_EXACT or name.startswith(_PROCESS_PREFIXES):
        return FACT_PROCESS
    if name in _FS_EXACT or name.startswith(_FS_PREFIXES):
        return FACT_FS
    if name == "current_tracer" or name.endswith(".current_tracer"):
        return FACT_TRACER
    return None


@dataclass(frozen=True)
class FactWitness:
    """Why a function carries a fact: the origin and how it is reached.

    ``origin`` is the fn id whose body exhibits the fact directly;
    ``chain`` is the internal call path from the carrying function down
    to ``origin`` (empty for a direct fact); ``site`` anchors the
    primitive inside ``origin``; ``detail`` names the primitive.
    """

    fact: str
    origin: str
    chain: tuple[str, ...]
    site: CallSite
    detail: str

    def describe(self) -> str:
        """Human-readable ``via a -> b: time.time`` witness string."""
        if self.chain:
            path = " -> ".join(self.chain)
            return f"via {path}: {self.detail}"
        return self.detail


class PurityReport:
    """Transitive purity facts for every function in a project model."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        #: fn id -> fact -> deterministic witness.
        self.facts: dict[str, dict[str, FactWitness]] = {}
        self._compute()

    def facts_of(self, fn_id: str) -> dict[str, FactWitness]:
        """The fact set of one function (empty if unknown)."""
        return self.facts.get(fn_id, {})

    def has_fact(self, fn_id: str, fact: str) -> bool:
        """True when ``fn_id`` transitively carries ``fact``."""
        return fact in self.facts.get(fn_id, {})

    # -- fixpoint ------------------------------------------------------------

    def _direct_facts(self) -> dict[str, dict[str, FactWitness]]:
        direct: dict[str, dict[str, FactWitness]] = {}
        for fn_id in sorted(self.model.functions):
            fn = self.model.functions[fn_id]
            found: dict[str, FactWitness] = {}
            for name, site in fn.external_calls:
                fact = classify_external(name)
                if fact is None:
                    continue
                witness = FactWitness(fact, fn_id, (), site, name)
                if fact not in found or _witness_key(witness) < _witness_key(
                    found[fact]
                ):
                    found[fact] = witness
            # The tracer read is matched on the raw call name (suffix
            # convention): current_tracer usually resolves to a
            # project-internal function, which external_calls never sees.
            for site in fn.facts.calls:
                if classify_external(site.name) != FACT_TRACER:
                    continue
                witness = FactWitness(FACT_TRACER, fn_id, (), site, site.name)
                if FACT_TRACER not in found or _witness_key(witness) < _witness_key(
                    found[FACT_TRACER]
                ):
                    found[FACT_TRACER] = witness
            if fn.facts.global_writes:
                site = min(fn.facts.global_writes)
                found.setdefault(
                    FACT_GLOBAL,
                    FactWitness(
                        FACT_GLOBAL, fn_id, (), site, f"writes module global '{site.name}'"
                    ),
                )
            direct[fn_id] = found
        return direct

    def _compute(self) -> None:
        facts = self._direct_facts()
        callers: dict[str, list[str]] = {fn_id: [] for fn_id in facts}
        callees: dict[str, list[str]] = {}
        for fn_id in sorted(self.model.functions):
            fn = self.model.functions[fn_id]
            internal = sorted({callee for callee, _ in fn.internal_calls})
            callees[fn_id] = internal
            for callee in internal:
                callers.setdefault(callee, []).append(fn_id)

        # Worklist fixpoint: when a callee's facts change, revisit callers.
        pending = sorted(facts)
        in_queue = set(pending)
        while pending:
            fn_id = pending.pop()
            in_queue.discard(fn_id)
            changed = False
            own = facts[fn_id]
            for callee in callees.get(fn_id, ()):
                for fact, witness in facts.get(callee, {}).items():
                    inherited = FactWitness(
                        fact,
                        witness.origin,
                        (callee,) + witness.chain,
                        witness.site,
                        witness.detail,
                    )
                    current = own.get(fact)
                    if current is None or _witness_key(inherited) < _witness_key(
                        current
                    ):
                        own[fact] = inherited
                        changed = True
            if changed:
                for caller in callers.get(fn_id, ()):
                    if caller not in in_queue:
                        pending.append(caller)
                        in_queue.add(caller)
                pending.sort()
        self.facts = facts


def _witness_key(witness: FactWitness) -> tuple:
    """Deterministic preference order: shortest chain, then lexicographic."""
    return (len(witness.chain), witness.chain, witness.origin, witness.detail)
