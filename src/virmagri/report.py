"""Structured pass/fail records produced by the verification sweeps."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class CheckRecord:
    identity: str
    case: str
    ok: bool
    lhs: str = ""
    rhs: str = ""


class CheckReport:
    """An ordered list of per-case records with per-identity tallies.

    Passing cases keep empty lhs/rhs strings; failing cases carry the two
    formatted sides as the counterexample.
    """

    def __init__(self, records: list[CheckRecord] | None = None):
        self.records: list[CheckRecord] = [] if records is None else records

    def record(self, identity: str, case: str, ok: bool, lhs="", rhs="") -> None:
        if ok:
            self.records.append(CheckRecord(identity, case, True))
        else:
            self.records.append(CheckRecord(identity, case, False, str(lhs), str(rhs)))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def identities(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.records:
            tally = out.setdefault(r.identity, {"cases": 0, "failed": 0})
            tally["cases"] += 1
            if not r.ok:
                tally["failed"] += 1
        return out

    def summary_lines(self) -> list[str]:
        lines = []
        for name, tally in self.identities().items():
            if tally["failed"]:
                lines.append("FAIL %s (%d/%d cases failed)" % (name, tally["failed"], tally["cases"]))
            else:
                lines.append("PASS %s (%d cases)" % (name, tally["cases"]))
        return lines

    def to_jsonable(self, include_passes: bool = False) -> dict:
        records = self.records if include_passes else self.failures()
        return {
            "ok": self.ok,
            "identities": self.identities(),
            "records": [asdict(r) for r in records],
        }
