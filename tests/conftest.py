import pytest

_CRITERIA: list[tuple[str, bool, str]] = []


@pytest.fixture
def criterion():
    """Record one acceptance-criterion verdict and assert it."""

    def _record(cid: str, ok: bool, detail: str = ""):
        _CRITERIA.append((cid, bool(ok), detail))
        assert ok, f"{cid} failed: {detail}"

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    # By the number after "A", so A2 comes before A10.
    for cid, ok, detail in sorted(_CRITERIA, key=lambda c: (int(c[0].removeprefix("A")), c)):
        status = "PASS" if ok else "FAIL"
        line = f"{cid}: {status}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
