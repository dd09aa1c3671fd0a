"""The acceptance gate: one test per criterion, each printing its verdict."""

import pytest

from slopelab import acceptance
from slopelab.acceptance import CRITERIA, run_all, run_one

IDS = [cid for cid, _, _ in CRITERIA]
TITLES = {cid: title for cid, title, _ in CRITERIA}


@pytest.mark.parametrize("crit_id", IDS)
def test_criterion(crit_id):
    record = run_one(crit_id)
    status = "PASS" if record["passed"] else "FAIL"
    print(f"[{status}] criterion {crit_id:2d}: {TITLES[crit_id]} ({record['runtime_s']:.1f}s)")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"    failed: {check}")
    if "error" in record:
        print(f"    raised: {record['error']}")
    assert record["passed"], f"criterion {crit_id} ({TITLES[crit_id]}) failed: " + "; ".join(
        [str(c) for c in record["checks"] if not c["ok"]] + [record.get("error", "")]
    )


def test_report_is_deterministic():
    a = run_one(1)
    b = run_one(1)
    a.pop("runtime_s")
    b.pop("runtime_s")
    assert a == b


def test_a_raising_criterion_is_a_failed_record(monkeypatch):
    # run_one and run_all record it alike; run_one used to let it escape
    def broken(rec):
        rec.check("before the raise", 1.0, 1.0, 0.0)
        raise ZeroDivisionError("in the criterion")

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "sphere-average constants", broken)])
    record = run_one(1)
    assert record["passed"] is False
    assert record["error"] == "ZeroDivisionError: in the criterion"
    assert "in broken" in record["traceback"]
    assert [c["ok"] for c in record["checks"]] == [True] and record["runtime_s"] >= 0.0
    report = run_all()
    assert report["all_passed"] is False
    assert [{k: v for k, v in r.items() if k != "runtime_s"} for r in report["criteria"]] == [
        {k: v for k, v in record.items() if k != "runtime_s"}
    ]
