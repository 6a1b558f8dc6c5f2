"""CheckReport against a plain list of CheckRecords, and the record
objects a sweep builds."""

from hypothesis import given, settings, strategies as st

from virmagri import AlgebraCtx, report
from virmagri.report import CheckRecord, CheckReport
from virmagri.verify import CHECKS, Bounds, run_suite

SMALL = Bounds(max_n=4, max_j=2, max_deg=3)
C1 = AlgebraCtx(1)

# record() arguments: identity, case, verdict and two sides, which a
# passing case drops and a failing one keeps as strings.
_calls = st.lists(st.tuples(st.sampled_from(["skew", "jacobi", "leibniz"]),
                            st.sampled_from(["a=L", "a=L, b=d1L", "n=3", ""]),
                            st.booleans(), st.integers(-9, 9), st.text(max_size=4)),
                  max_size=40)


class _ListReport:
    """The report as a list of records, as it was kept before."""

    def __init__(self, calls):
        self.records = [CheckRecord(i, c, True) if ok else CheckRecord(i, c, False, str(l), str(r))
                        for i, c, ok, l, r in calls]

    def failures(self):
        return [r for r in self.records if not r.ok]

    def identities(self):
        out = {}
        for r in self.records:
            tally = out.setdefault(r.identity, {"cases": 0, "failed": 0})
            tally["cases"] += 1
            tally["failed"] += not r.ok
        return out

    def summary_lines(self):
        return ["FAIL %s (%d/%d cases failed)" % (name, t["failed"], t["cases"]) if t["failed"]
                else "PASS %s (%d cases)" % (name, t["cases"])
                for name, t in self.identities().items()]

    def to_jsonable(self):
        return {"ok": not self.failures(), "identities": self.identities(),
                "records": [r._asdict() for r in self.failures()]}


@settings(derandomize=True)
@given(_calls, st.lists(st.integers(0, 40), max_size=4))
def test_report_matches_a_list_of_records(calls, cuts):
    model = _ListReport(calls)
    ends = sorted({min(c, len(calls)) for c in cuts} | {len(calls)})
    rep, start = CheckReport(), 0
    for end in ends:
        part = CheckReport()
        for args in calls[start:end]:
            part.record(*args)
        rep.extend(part)
        start = end
    assert rep.records == model.records
    assert rep.failures() == model.failures()
    assert rep.ok == (not model.failures())
    assert rep.identities() == model.identities()
    assert rep.summary_lines() == model.summary_lines()
    assert rep.to_jsonable() == model.to_jsonable()


def test_a_passing_sweep_builds_no_record_objects(monkeypatch):
    made = []
    monkeypatch.setattr(report, "CheckRecord", lambda *args: made.append(args) or CheckRecord(*args))
    for rep in (CHECKS["skew"](SMALL, C1), run_suite("sesquilinearity", SMALL, C1)):
        assert rep.ok
        # Everything but records reads the stored labels and tallies.
        assert rep.failures() == [] and rep.summary_lines() and rep.to_jsonable()
        assert made == []
        cases = sum(t["cases"] for t in rep.identities().values())
        assert cases and len(rep.records) == cases == len(made)
        made.clear()


def test_check_record_fields_defaults_and_repr():
    r = CheckRecord("i", "c", True)
    assert (r.identity, r.case, r.ok, r.lhs, r.rhs) == ("i", "c", True, "", "")
    assert repr(r) == "CheckRecord(identity='i', case='c', ok=True, lhs='', rhs='')"
    assert CheckRecord("i", "c", False, "a", "b") == CheckRecord(
        identity="i", case="c", ok=False, lhs="a", rhs="b") != r


def test_json_records_are_plain_dicts_in_field_order():
    rep = CheckReport()
    rep.record("skew", "a=L", True, "x", "x")
    rep.record("jacobi", "a=L, b=d1L", False, 3, "d1L")
    records = rep.to_jsonable()["records"]
    assert records == [{"identity": "jacobi", "case": "a=L, b=d1L", "ok": False,
                        "lhs": "3", "rhs": "d1L"}]
    assert type(records[0]) is dict
    assert list(records[0]) == ["identity", "case", "ok", "lhs", "rhs"]
