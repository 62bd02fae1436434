"""Check/report containers shared by the verification suites and the CLI."""

from __future__ import annotations


class Check:
    """One line of a report; `gap` marks a failure caused by a classification gap."""

    __slots__ = ("name", "passed", "detail", "repro", "gap")

    def __init__(self, name: str, passed: bool, detail: str, repro: str, gap: bool):
        self.name, self.passed, self.detail, self.repro, self.gap = name, passed, detail, repro, gap


class Report:
    __slots__ = ("title", "checks", "notes", "data")

    def __init__(self, title: str):
        self.title, self.checks, self.notes, self.data = title, [], [], {}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def has_gap(self) -> bool:
        return any(c.gap for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "", repro: str = "", gap: bool = False):
        self.checks.append(Check(name, passed, detail, repro, gap))

    def render_text(self) -> str:
        lines = [f"== {self.title} =="]
        for note in self.notes:
            lines.append(f"note: {note}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if c.detail and not c.passed:
                line += f" -- {c.detail}"
            lines.append(line)
            if not c.passed and c.repro:
                lines.append(f"       reproduce: {c.repro}")
        for key, value in self.data.items():
            lines.append(f"{key}:")
            if isinstance(value, dict):
                for k, v in value.items():
                    lines.append(f"  {k}: {v}")
            else:
                lines.append(f"  {value}")
        total = len(self.checks)
        good = sum(1 for c in self.checks if c.passed)
        lines.append(f"result: {good}/{total} checks passed")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "notes": list(self.notes),
            "checks": [{name: getattr(c, name) for name in Check.__slots__} for c in self.checks],
            "data": self.data,
        }
