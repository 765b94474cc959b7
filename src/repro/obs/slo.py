"""Declarative SLO thresholds and their evaluation.

An :class:`SloPolicy` is a named set of :class:`SloThreshold` rules,
each bounding one observable of the live system — a gauge ("queue depth
stays under 1024"), a counter ("no lost warehouse flushes"), or a derived
stat. Evaluating a policy against a stats mapping yields an
:class:`SloReport`: per-rule verdicts plus one overall ``healthy`` bit,
which is exactly what ``/healthz`` turns into its 200-vs-503 answer and
``repro obs slo check`` into its exit code.

Policies are plain data (JSON round-trippable) so a deployment can ship
its own thresholds next to its fault plans; :data:`DEFAULT_INGEST_SLO`
is the daemon's built-in posture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.core.errors import LagAlyzerError


class SloError(LagAlyzerError):
    """An SLO policy is malformed."""


_OPS = ("<=", ">=")


@dataclass(frozen=True)
class SloThreshold:
    """One bound on one stat.

    Args:
        stat: key looked up in the stats mapping (missing keys evaluate
            against 0, so a threshold on a counter that never fired
            passes rather than errors).
        op: ``"<="`` (an upper bound — queue depths, loss counters) or
            ``">="`` (a lower bound — throughput floors).
        limit: the bound itself.
        description: one line for reports; defaults to the rule text.
    """

    stat: str
    op: str
    limit: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.stat:
            raise SloError("threshold needs a non-empty 'stat'")
        if self.op not in _OPS:
            raise SloError(
                f"threshold {self.stat!r}: op must be one of "
                f"{', '.join(_OPS)}, got {self.op!r}"
            )
        if not self.description:
            object.__setattr__(
                self,
                "description",
                f"{self.stat} {self.op} {self.limit:g}",
            )

    def check(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.limit
        return value >= self.limit

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stat": self.stat,
            "op": self.op,
            "limit": self.limit,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SloThreshold":
        if not isinstance(raw, Mapping):
            raise SloError(f"threshold must be an object, got {raw!r}")
        unknown = set(raw) - {"stat", "op", "limit", "description"}
        if unknown:
            raise SloError(
                f"threshold has unknown field(s): "
                f"{', '.join(sorted(unknown))}"
            )
        if "stat" not in raw or "limit" not in raw:
            raise SloError("threshold needs 'stat' and 'limit'")
        return cls(
            stat=str(raw["stat"]),
            op=str(raw.get("op", "<=")),
            limit=float(raw["limit"]),
            description=str(raw.get("description", "")),
        )


@dataclass(frozen=True)
class SloPolicy:
    """A named set of thresholds. JSON round-trippable."""

    name: str = "default"
    thresholds: Tuple[SloThreshold, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))

    def evaluate(self, stats: Mapping[str, Any]) -> "SloReport":
        """Check every threshold against ``stats`` (missing stats = 0)."""
        results = []
        for threshold in self.thresholds:
            value = float(stats.get(threshold.stat, 0) or 0)
            results.append(
                {
                    "stat": threshold.stat,
                    "description": threshold.description,
                    "value": value,
                    "limit": threshold.limit,
                    "op": threshold.op,
                    "ok": threshold.check(value),
                }
            )
        return SloReport(policy=self.name, results=tuple(results))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "thresholds": [t.as_dict() for t in self.thresholds],
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SloPolicy":
        if not isinstance(raw, Mapping):
            raise SloError(f"SLO policy must be an object, got {raw!r}")
        thresholds = raw.get("thresholds", [])
        if not isinstance(thresholds, (list, tuple)):
            raise SloError("'thresholds' must be a list")
        return cls(
            name=str(raw.get("name", "default")),
            thresholds=tuple(
                SloThreshold.from_dict(t) for t in thresholds
            ),
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SloPolicy":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise SloError(f"cannot read SLO policy {path}: {error}")
        try:
            raw = json.loads(text)
        except ValueError as error:
            raise SloError(
                f"SLO policy {path} is not valid JSON: {error}"
            ) from None
        return cls.from_dict(raw)


@dataclass(frozen=True)
class SloReport:
    """The outcome of one policy evaluation."""

    policy: str
    results: Tuple[Dict[str, Any], ...]

    @property
    def healthy(self) -> bool:
        return all(result["ok"] for result in self.results)

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [result for result in self.results if not result["ok"]]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "healthy": self.healthy,
            "results": list(self.results),
        }

    def lines(self) -> List[str]:
        """Human-readable per-rule lines (for the CLI)."""
        rendered = []
        for result in self.results:
            mark = "ok " if result["ok"] else "FAIL"
            rendered.append(
                f"[{mark}] {result['description']}"
                f" (value={result['value']:g})"
            )
        return rendered


def _ingest_default() -> SloPolicy:
    return SloPolicy(
        name="ingest-default",
        thresholds=(
            SloThreshold(
                "pending_batches", "<=", 1024,
                "accepted-but-unflushed batches stay bounded",
            ),
            SloThreshold(
                "spool_lag_records", "<=", 100000,
                "accepted records not yet on disk stay bounded",
            ),
            SloThreshold(
                "telemetry_lost_flushes", "<=", 0,
                "no warehouse flush has been lost",
            ),
        ),
    )


#: The ingest daemon's built-in health posture: queues bounded, spool
#: keeping up, no telemetry loss.
DEFAULT_INGEST_SLO: SloPolicy = _ingest_default()


def ingest_stats_for_slo(
    server_stats: Mapping[str, Any],
    telemetry_lost: int = 0,
) -> Dict[str, float]:
    """Map daemon counters onto the stat names the default SLO bounds."""
    accepted = float(server_stats.get("records_accepted", 0))
    flushed = float(server_stats.get("records_flushed", 0))
    return {
        "sessions": float(server_stats.get("sessions", 0)),
        "pending_batches": float(server_stats.get("pending_batches", 0)),
        "spool_lag_records": max(0.0, accepted - flushed),
        "records_accepted": accepted,
        "records_flushed": flushed,
        "nacks_sent": float(server_stats.get("nacks_sent", 0)),
        "telemetry_lost_flushes": float(telemetry_lost),
    }
