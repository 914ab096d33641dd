"""Deterministic, seeded fault injection for the simulators.

The engine exists to *prove* the resilience machinery works: an injected
fault must be caught either by the forward-progress watchdog (hangs) or
by the interpreter-verification path (silent data corruption) — never by
luck.  Supported fault kinds:

``token_corrupt``
    Transient bit-flip of a token value leaving a functional unit
    (caught by memory verification against the interpreter).
``mem_drop``
    A memory response never returns: the access completes at
    ``time + drop_stall_cycles``, which stalls the consuming thread past
    any reasonable watchdog budget (caught by the watchdog).
``lvc_corrupt``
    A live-value-cache line returns a corrupted word on an LVU load
    (caught by verification).
``stuck_at``
    A stuck-at-``payload`` physical unit: every token produced by the
    targeted unit is forced to the stuck value (caught by verification;
    models a hard PE fault).
``abort``
    Raise :class:`~repro.resilience.errors.FaultInjectedError` outright
    (models a hard crash; proves the suite isolates even non-simulation
    failures).

Determinism: all randomness comes from one ``random.Random(seed)``
consumed in simulation order, and the simulators themselves are
deterministic, so two runs with the same spec produce **byte-identical**
failure logs (asserted in ``tests/test_resilience.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Union

from repro.resilience.errors import FaultInjectedError

FAULT_KINDS = ("token_corrupt", "mem_drop", "lvc_corrupt", "stuck_at",
               "abort")

#: cycles a dropped memory response is pushed into the future; large
#: enough that any armed watchdog budget trips first.
DROP_STALL_CYCLES = 1e9


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection campaign (deterministic given ``seed``)."""

    kind: str
    seed: int = 0
    #: per-eligible-event probability for the transient kinds
    rate: float = 0.002
    #: victim unit id for ``stuck_at`` (``None`` = first unit observed)
    unit: Optional[int] = None
    #: stuck value for ``stuck_at``
    payload: Union[int, float] = 0
    #: eligible-event ordinal at which ``abort`` fires
    abort_after: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick one of {FAULT_KINDS}"
            )

    def reseeded(self, delta: int) -> "FaultSpec":
        """Derive the deterministic retry spec (seed shifted by ``delta``)."""
        return replace(self, seed=self.seed + delta)

    @staticmethod
    def parse(text: str) -> "FaultSpec":
        """Parse ``kind[:seed[:rate]]`` (the CLI ``--inject`` syntax)."""
        parts = text.split(":")
        kind = parts[0]
        seed = int(parts[1]) if len(parts) > 1 and parts[1] else 0
        rate = float(parts[2]) if len(parts) > 2 and parts[2] else 0.002
        return FaultSpec(kind=kind, seed=seed, rate=rate)


@dataclass
class FaultLogEntry:
    """One injected fault, structured for reports and JSON archives."""

    ordinal: int
    kind: str
    site: str
    cycle: float
    event: int          # eligible-event index at the hook
    before: str
    after: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ordinal": self.ordinal, "kind": self.kind, "site": self.site,
            "cycle": self.cycle, "event": self.event,
            "before": self.before, "after": self.after,
        }

    def format(self) -> str:
        return (
            f"#{self.ordinal} {self.kind} @ {self.site} "
            f"cycle={self.cycle:.3f} event={self.event} "
            f"{self.before} -> {self.after}"
        )


class FaultInjector:
    """Stateful injector threaded through one simulator run.

    One injector instance is good for **one** run: it owns the RNG
    stream and the log.  ``run_suite`` builds a fresh injector (with a
    deterministically derived seed) for every attempt.
    """

    def __init__(self, spec: FaultSpec,
                 drop_stall_cycles: float = DROP_STALL_CYCLES):
        self.spec = spec
        self.drop_stall_cycles = drop_stall_cycles
        self._rng = random.Random(spec.seed)
        self._events: Dict[str, int] = {}  # eligible events seen per hook
        self.log: List[FaultLogEntry] = []
        self._stuck_unit: Optional[int] = spec.unit

    # -- bookkeeping ----------------------------------------------------
    def _bump(self, hook: str) -> int:
        n = self._events.get(hook, 0)
        self._events[hook] = n + 1
        return n

    def _record(self, kind: str, site: str, cycle: float, event: int,
                before: Any, after: Any) -> None:
        self.log.append(FaultLogEntry(
            ordinal=len(self.log), kind=kind, site=site, cycle=cycle,
            event=event, before=repr(before), after=repr(after),
        ))

    @property
    def faults_injected(self) -> int:
        return len(self.log)

    def format_log(self) -> str:
        """Deterministic text rendering (byte-identical per seed)."""
        header = (
            f"fault log: kind={self.spec.kind} seed={self.spec.seed} "
            f"rate={self.spec.rate!r} injected={len(self.log)}"
        )
        return "\n".join([header] + [e.format() for e in self.log])

    def log_dicts(self) -> List[Dict[str, Any]]:
        return [e.to_dict() for e in self.log]

    # -- value mutation -------------------------------------------------
    def _mutate(self, value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            flipped = value ^ (1 << self._rng.randrange(16))
            return flipped if flipped != value else value + 1
        return float(value) + (1.0 + self._rng.random() * 1e3) * (
            1.0 if self._rng.random() < 0.5 else -1.0
        )

    # -- hooks (called by the simulators) -------------------------------
    def corrupt_token(self, site: str, uid: int, tid: int, cycle: float,
                      value):
        """OP-node output hook: transient corruption or a stuck-at PE."""
        kind = self.spec.kind
        if kind == "stuck_at":
            if self._stuck_unit is None:
                self._stuck_unit = uid  # first unit observed is the victim
            if uid == self._stuck_unit:
                event = self._bump("token")
                stuck = (
                    float(self.spec.payload)
                    if isinstance(value, float) else int(self.spec.payload)
                )
                if stuck != value:
                    self._record("stuck_at", f"{site}/unit{uid}", cycle,
                                 event, value, stuck)
                return stuck
            return value
        if kind == "token_corrupt":
            event = self._bump("token")
            if self._rng.random() < self.spec.rate:
                mutated = self._mutate(value)
                self._record("token_corrupt", f"{site}/t{tid}", cycle,
                             event, value, mutated)
                return mutated
        return value

    def corrupt_lv(self, lv_id: int, tid: int, cycle: float, value):
        """LVU-load hook: a corrupted live-value-cache line."""
        if self.spec.kind != "lvc_corrupt":
            return value
        event = self._bump("lv")
        if self._rng.random() < self.spec.rate:
            mutated = self._mutate(value)
            self._record("lvc_corrupt", f"lv{lv_id}/t{tid}", cycle,
                         event, value, mutated)
            return mutated
        return value

    def drop_response(self, site: str, addr: int, cycle: float) -> bool:
        """Memory-access hook: ``True`` = this response never returns."""
        if self.spec.kind != "mem_drop":
            return False
        event = self._bump("mem")
        if self._rng.random() < self.spec.rate:
            self._record("mem_drop", f"{site}/0x{addr:x}", cycle,
                         event, "response", "dropped")
            return True
        return False

    def maybe_abort(self, site: str, cycle: float) -> None:
        """Crash hook: raise once the configured ordinal is reached."""
        if self.spec.kind != "abort":
            return
        event = self._bump("abort")
        if event >= self.spec.abort_after:
            self._record("abort", site, cycle, event, "running", "aborted")
            raise FaultInjectedError(
                f"injected abort at {site}",
                site=site, cycle=round(cycle, 3), seed=self.spec.seed,
            )
