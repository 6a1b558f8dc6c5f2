"""Structured pass/fail records produced by the verification sweeps."""

from __future__ import annotations

import sys
from collections import namedtuple

CheckRecord = namedtuple("CheckRecord", "identity case ok lhs rhs", defaults=("", ""))


class CheckReport:
    """An ordered list of per-case records with per-identity tallies.

    Passing cases keep empty lhs/rhs strings; failing cases carry the two
    formatted sides as the counterexample.

    A sweep records tens of thousands of cases, nearly all passing, so
    no record objects are kept: case i is identities[i] with cases[i],
    its label interned (sweeps repeat labels), a failing case's sides
    are sides[i], and tallies[identity] is [cases, failed].  records and
    failures() build CheckRecords on request.
    """

    def __init__(self):
        self._identities: list[str] = []
        self._cases: list[str] = []
        self._sides: dict[int, tuple[str, str]] = {}
        self._tallies: dict[str, list[int]] = {}

    def record(self, identity: str, case: str, ok: bool, lhs="", rhs="") -> None:
        tally = self._tallies.setdefault(identity, [0, 0])
        tally[0] += 1
        if not ok:
            tally[1] += 1
            self._sides[len(self._cases)] = (str(lhs), str(rhs))
        self._identities.append(identity)
        self._cases.append(sys.intern(case))

    def extend(self, other: CheckReport) -> None:
        """Append other's cases after this report's, in order."""
        start = len(self._cases)
        self._identities += other._identities
        self._cases += other._cases
        self._sides.update({start + i: sides for i, sides in other._sides.items()})
        for identity, (cases, failed) in other._tallies.items():
            tally = self._tallies.setdefault(identity, [0, 0])
            tally[0] += cases
            tally[1] += failed

    @property
    def records(self) -> list[CheckRecord]:
        sides = self._sides
        return [CheckRecord(identity, case, False, *sides[i]) if i in sides
                else CheckRecord(identity, case, True)
                for i, (identity, case) in enumerate(zip(self._identities, self._cases))]

    @property
    def ok(self) -> bool:
        return not self._sides

    def failures(self) -> list[CheckRecord]:
        return [CheckRecord(self._identities[i], self._cases[i], False, lhs, rhs)
                for i, (lhs, rhs) in self._sides.items()]

    def identities(self) -> dict[str, dict[str, int]]:
        return {identity: {"cases": cases, "failed": failed}
                for identity, (cases, failed) in self._tallies.items()}

    def summary_lines(self) -> list[str]:
        return ["FAIL %s (%d/%d cases failed)" % (name, failed, cases) if failed
                else "PASS %s (%d cases)" % (name, cases)
                for name, (cases, failed) in self._tallies.items()]

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "identities": self.identities(),
            "records": [r._asdict() for r in self.failures()],
        }
