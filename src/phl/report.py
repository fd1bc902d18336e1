"""Structured pass/fail reporting shared by every verification layer."""

from __future__ import annotations

import json

__all__ = ["CheckResult", "CheckReport"]


class CheckResult:
    """One named check: status "pass" or "fail", witnesses, data, seconds."""

    __slots__ = ("name", "status", "witnesses", "data", "seconds")

    def __init__(self, name, status, witnesses=None, data=None, seconds=0.0):
        self.name, self.status, self.seconds = name, status, seconds
        self.witnesses = [] if witnesses is None else witnesses
        self.data = {} if data is None else data

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class CheckReport:
    """Ordered collection of uniquely named check results."""

    def __init__(self):
        self.results: list[CheckResult] = []
        self._names: set[str] = set()

    def add(self, name, ok, witnesses=None, data=None, seconds=0.0) -> CheckResult:
        if name in self._names:
            raise ValueError(f"duplicate check name: {name}")
        self._names.add(name)
        res = CheckResult(
            name=name,
            status="pass" if ok else "fail",
            witnesses=list(witnesses or []),
            data=dict(data or {}),
            seconds=seconds,
        )
        self.results.append(res)
        return res

    def merge(self, other: "CheckReport") -> "CheckReport":
        for res in other.results:
            if res.name in self._names:
                raise ValueError(f"duplicate check name: {res.name}")
            self._names.add(res.name)
            self.results.append(res)
        return self

    def __getitem__(self, name: str) -> CheckResult:
        for res in self.results:
            if res.name == name:
                return res
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_json_dict(self) -> dict:
        # Timing stays out of the serialized form so identical runs emit
        # identical bytes; it is shown in the human summary instead.
        return {
            "checks": [
                {"name": r.name, "status": r.status, "witnesses": r.witnesses, "data": r.data}
                for r in self.results
            ]
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, default=str)

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            extra = ""
            if not r.passed and r.witnesses:
                extra = f"  witnesses={r.witnesses[:3]}"
            lines.append(f"{mark}  {r.name}  ({r.seconds:.2f}s){extra}")
        return lines
