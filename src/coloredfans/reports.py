"""Structured pass/fail reports produced by the validators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ValidationReport:
    """Named boolean checks plus human-readable reasons for the failures.

    ``checks`` preserves insertion order so rendered reports are deterministic.
    ``notes`` carries conventions and caveats that apply whether or not the
    checks pass.
    """

    subject: str
    checks: dict[str, bool] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def record(self, name: str, ok: bool, reason: str | None = None) -> bool:
        self.checks[name] = ok
        if not ok and reason:
            self.reasons.append(f"{name}: {reason}")
        return ok

    def merge(self, other: "ValidationReport", prefix: str) -> None:
        for name, ok in other.checks.items():
            self.checks[f"{prefix}.{name}"] = ok
        self.reasons.extend(f"{prefix}: {r}" for r in other.reasons)
        for note in other.notes:
            if note not in self.notes:
                self.notes.append(note)
